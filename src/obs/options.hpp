// Observability run options.
//
// Tracing is off by default: the per-record cost is small but the figure
// sweeps run billions of events, and the paper's numbers must never depend
// on whether anyone was watching. The switch is the CNI_TRACE environment
// variable (or an explicit --trace-out flag in the bench binaries); when it
// is off, an instrumentation site costs one pointer test (see obs.hpp).
#pragma once

#include <cstdint>

namespace cni::obs {

struct Options {
  /// Record trace events into the per-node rings.
  bool trace = false;
  /// Ring capacity in records per node. When a ring is full the oldest
  /// record is overwritten and the drop counter advances, so a bounded ring
  /// never perturbs the simulation by allocating mid-run.
  std::uint32_t trace_capacity = 4096;
};

/// Process-wide default options, consulted by SimParams. Initialized once
/// from the environment (CNI_TRACE=0|1, CNI_TRACE_CAPACITY=<records >= 1>;
/// any other value fails a CNI_CHECK); a bench binary's --trace-out flag
/// overrides them via set_default_options() before any sweep thread starts.
[[nodiscard]] Options default_options();
void set_default_options(const Options& opts);

}  // namespace cni::obs
