// Probe kernel for micro_obs: one representative instrumented hot-path
// operation (a Message Cache transmit lookup plus the emit macros CniBoard
// wraps around it). With null handles it measures the shipped default, the
// runtime-off residue (one pointer test per site); live handles measure
// what metrics and tracing add on top.
#pragma once

#include <cstdint>

#include "core/message_cache.hpp"
#include "obs/obs.hpp"

namespace cni::bench {

struct ProbeCtx {
  explicit ProbeCtx(std::uint64_t cache_bytes = 512 * 1024)
      : mcache(mem::PageGeometry(4096), cache_bytes) {
    for (std::uint64_t i = 0; i < mcache.buffer_count(); ++i) mcache.insert(i * 4096, 4096);
  }

  core::MessageCache mcache;
  std::uint64_t va = 0;
  std::uint64_t t = 0;    ///< synthetic sim-time cursor, ps
  std::uint32_t seq = 0;  ///< causality-token sequence cursor

  // Null by default: the probe then measures emit sites whose runtime
  // switch is off. Point them at real handles to measure live recording.
  obs::NodeObs* node = nullptr;
  obs::Hist* hist = nullptr;
  obs::Gauge* gauge = nullptr;
};

/// One probe step: the lookup plus every emit site, gated by ctx's handles.
std::uint64_t probe_step(ProbeCtx& ctx);

}  // namespace cni::bench
