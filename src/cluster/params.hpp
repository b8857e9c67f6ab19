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

namespace cni::cluster {

enum class BoardKind {
  kCni,       ///< the paper's contribution
  kStandard,  ///< baseline: no ADC, no Message Cache, no AIH
};

/// Where DSM collective operations (barrier, reduce) execute.
enum class CollectiveMode : std::uint8_t {
  kHost,  ///< centralized host manager on node 0 (the seed protocol)
  kNic,   ///< NIC-resident combining tree: AIH handlers combine and forward
};

/// Process-default collective mode: whatever set_default_collective
/// installed (a bench binary's --collective= flag), else kHost. Host stays
/// the default so existing figure artifacts are untouched.
[[nodiscard]] CollectiveMode default_collective();
void set_default_collective(CollectiveMode mode);
[[nodiscard]] const char* collective_name(CollectiveMode mode);
/// Parses `nic` / `host`; returns false (out unchanged) on anything else.
[[nodiscard]] bool parse_collective(const char* text, CollectiveMode& out);

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
  /// (CNI_TRACE env / bench report flags), captured when the SimParams is
  /// built so every cluster in a sweep sees one consistent setting.
  obs::Options obs = obs::default_options();

  /// Renders the Table 1 parameter dump.
  [[nodiscard]] util::Table to_table() const;
};

}  // namespace cni::cluster
