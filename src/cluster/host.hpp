// The host workstation CPU model.
//
// Owns one node's cache model, local clock (Proteus-style) and statistics
// account, and implements the HostSystem services the NIC boards need
// (overhead charging, interrupt-cycle stealing, cache flush/invalidate).
//
// Accounting discipline (what makes Tables 2-4 reproducible):
//   compute_cycles        — app work charged through compute()/mem_access()
//   synch_overhead_cycles — messaging/protocol CPU work: charge_overhead()
//                           from app context and steal_cycles() from
//                           interrupt context (absorbed at the next sync)
//   synch_delay_cycles    — the residual: elapsed - compute - overhead,
//                           assigned by the Cluster when the run ends.
#pragma once

#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/tlb.hpp"
#include "nic/board.hpp"
#include "sim/process.hpp"
#include "sim/stats.hpp"

namespace cni::cluster {

class HostCpu final : public nic::HostSystem {
 public:
  HostCpu(std::uint64_t cpu_freq_hz, const mem::CacheParams& cache_params,
          mem::MemoryBus& bus, mem::PageTable& page_table, sim::NodeStats& stats);

  // ---- Application-side interface ----

  /// Charges pure ALU/control work (accumulates locally; no yield).
  void compute(std::uint64_t cycles) {
    stats_.compute_cycles += cycles;
    clock_.charge_cycles(cycles);
  }

  /// Models one load/store at host virtual address `va` through the cache
  /// hierarchy. Write-backs it triggers appear on the bus (and are snooped).
  void mem_access(mem::VAddr va, bool is_write) { mem_access_phys(pt_.translate(va), is_write); }

  /// As mem_access, with the translation already done — the DSM fast path
  /// caches physical page bases to keep a simulated access down to a few
  /// nanoseconds of wall time. Table 1's memory latency is the *total* fill
  /// cost (probe + transfer), so no bus time is charged on top.
  void mem_access_phys(mem::PAddr pa, bool is_write) {
    const mem::CacheAccess r = cache_.access(pa, is_write);
    if (r.wrote_back || r.bus_write) announce_writes(r);
    stats_.compute_cycles += r.cpu_cycles;
    clock_.charge_cycles(r.cpu_cycles);
  }

  /// Converts all locally accumulated charge — including cycles stolen by
  /// interrupts — into simulated delay. Call at every synchronisation point.
  void sync(sim::SimThread& self);

  [[nodiscard]] sim::LocalClock& local_clock() { return clock_; }
  [[nodiscard]] mem::CacheModel& cache() { return cache_; }

  // ---- HostSystem interface (used by the boards) ----
  [[nodiscard]] sim::Clock cpu_clock() const override { return sim::Clock(freq_hz_); }
  void charge_overhead(sim::SimThread& self, std::uint64_t cpu_cycles) override;
  void steal_cycles(std::uint64_t cpu_cycles) override;
  std::uint64_t flush_buffer(mem::VAddr va, std::uint64_t len) override;
  void cache_invalidate(mem::VAddr va, std::uint64_t len) override;
  mem::MemoryBus& bus() override { return bus_; }
  mem::PageTable& page_table() override { return pt_; }
  sim::NodeStats& stats() override { return stats_; }
  [[nodiscard]] obs::NodeObs* obs() override { return obs_; }

  /// Attaches the node's observability context. Must run before the board is
  /// constructed: boards resolve their histogram handles through obs() once,
  /// at construction.
  void set_obs(obs::NodeObs* obs) { obs_ = obs; }

  [[nodiscard]] std::uint64_t stolen_pending() const { return stolen_cycles_; }

 private:
  /// Puts an access's write-back, then its write-through store, on the bus.
  void announce_writes(const mem::CacheAccess& r);
  std::uint64_t freq_hz_;
  sim::LocalClock clock_;
  mem::CacheModel cache_;
  mem::MemoryBus& bus_;
  mem::PageTable& pt_;
  sim::NodeStats& stats_;
  obs::NodeObs* obs_ = nullptr;
  std::uint64_t stolen_cycles_ = 0;
};

}  // namespace cni::cluster
