// Whole-machine simulation parameters (paper Table 1).
#pragma once

#include <cstdint>

#include "atm/fabric.hpp"
#include "core/cni_board.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "nic/board.hpp"
#include "obs/options.hpp"
#include "util/table.hpp"

namespace cni::obs {
class Reporter;
}  // namespace cni::obs

namespace cni::cluster {

enum class BoardKind {
  kCni,       ///< the paper's contribution
  kStandard,  ///< baseline: no ADC, no Message Cache, no AIH
};

/// Where DSM collective operations (barrier, reduce, broadcast) execute.
enum class CollectiveMode : std::uint8_t {
  kHost,  ///< centralized host manager on node 0 (the seed protocol)
  kNic,   ///< NIC-resident combining tree: AIH handlers combine and forward
};

/// Process-default collective mode: CNI_COLLECTIVE (`nic` or `host`; any
/// other value fails a CNI_CHECK), else whatever set_default_collective
/// installed, else kHost. Host stays the default so existing figure
/// artifacts are untouched.
[[nodiscard]] CollectiveMode default_collective();
void set_default_collective(CollectiveMode mode);
[[nodiscard]] const char* collective_name(CollectiveMode mode);
/// Parses `nic` / `host`; returns false (out unchanged) on anything else.
[[nodiscard]] bool parse_collective(const char* text, CollectiveMode& out);

/// Applies `--topology=banyan|clos|torus`, `--ports=N` and
/// `--collective=nic|host` from argv to the process-wide defaults
/// (atm::set_default_fabric_shape / set_default_collective), so every
/// SimParams / DsmParams built afterwards picks them up. Validates eagerly —
/// unknown topology names, non-power-of-two port counts and unknown
/// collective modes exit(2) with a message naming the accepted values — and
/// ignores unrelated argv entries (obs::Reporter's flags and the benchmark's
/// own). When `report` is given, the effective shape and collective mode are
/// recorded in the run report's config block, flags or not, so every
/// artifact says which fabric and barrier path produced it. Call once at
/// startup, before any sweep worker builds a SimParams.
void apply_fabric_cli(int argc, char** argv, obs::Reporter* report = nullptr);

struct SimParams {
  std::uint64_t cpu_freq_hz = 166'000'000;  ///< Table 1: 166 MHz Alpha
  std::uint64_t page_size = 4096;           ///< host + DSM + Message Cache buffer page
  std::uint32_t processors = 8;
  BoardKind board = BoardKind::kCni;

  mem::CacheParams cache;     ///< 32 KB L1 / 1 MB L2, direct-mapped write-back
  mem::BusParams bus;         ///< 25 MHz, 4-cycle acquisition, 2 cycles/word
  nic::NicParams nic;         ///< 33 MHz NIC, SAR/interrupt/kernel costs
  atm::FabricParams fabric;   ///< 622 Mb/s links, 500 ns banyan switch
  core::CniConfig cni;        ///< 32 KB Message Cache etc.
  /// Observability switches. Defaults come from the process-wide options
  /// (CNI_TRACE env / Reporter flags), captured when the SimParams is built
  /// so every cluster in a sweep sees one consistent setting.
  obs::Options obs = obs::default_options();

  /// Renders the Table 1 parameter dump.
  [[nodiscard]] util::Table to_table() const;
};

}  // namespace cni::cluster
