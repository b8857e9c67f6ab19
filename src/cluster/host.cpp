#include "cluster/host.hpp"

#include "util/units.hpp"

namespace cni::cluster {

HostCpu::HostCpu(std::uint64_t cpu_freq_hz, const mem::CacheParams& cache_params,
                 mem::MemoryBus& bus, mem::PageTable& page_table,
                 sim::NodeStats& stats)
    : freq_hz_(cpu_freq_hz),
      clock_(sim::Clock(cpu_freq_hz)),
      cache_(cache_params),
      bus_(bus),
      pt_(page_table),
      stats_(stats) {}

void HostCpu::announce_writes(const mem::CacheAccess& r) {
  if (r.wrote_back) {
    // Dirty victim drains through the write buffer: announced on the bus so
    // the CNI snooper sees it, but it does not stall the CPU.
    bus_.cpu_write(r.writeback_line, cache_.params().line_size);
  }
  if (r.bus_write) {
    // Write-through mode: the store itself is a bus write.
    bus_.cpu_write(r.bus_write_line, cache_.params().line_size);
  }
}

void HostCpu::sync(sim::SimThread& self) {
  if (stolen_cycles_ != 0) {
    clock_.charge_cycles(stolen_cycles_);
    stolen_cycles_ = 0;
  }
  clock_.sync(self);
}

void HostCpu::charge_overhead(sim::SimThread& self, std::uint64_t cpu_cycles) {
  stats_.synch_overhead_cycles += cpu_cycles;
  clock_.charge_cycles(cpu_cycles);
  sync(self);
}

void HostCpu::steal_cycles(std::uint64_t cpu_cycles) {
  stats_.synch_overhead_cycles += cpu_cycles;
  stolen_cycles_ += cpu_cycles;
}

std::uint64_t HostCpu::flush_buffer(mem::VAddr va, std::uint64_t len) {
  if (len == 0) return 0;
  std::uint64_t cycles = 0;
  // Walk the range page by page: the cache is physically indexed and pages
  // are not virtually contiguous in physical memory.
  const auto& geo = pt_.geometry();
  mem::VAddr cur = va;
  const mem::VAddr end = va + len;
  while (cur < end) {
    const mem::VAddr page_end = geo.base_of(geo.page_of(cur) + 1);
    const std::uint64_t chunk = (end < page_end ? end : page_end) - cur;
    const mem::PAddr pa = pt_.translate(cur);
    const auto dirty_lines = cache_.flush_range(pa, chunk, &cycles);
    for (const mem::PAddr line : dirty_lines) {
      // Each flushed line is a write transaction: the CNI snooper folds it
      // into any bound Message Cache buffer, keeping it consistent.
      const sim::SimDuration d = bus_.cpu_write(line, cache_.params().line_size);
      cycles += cpu_clock().to_cycles_ceil(d);
    }
    cur += chunk;
  }
  return cycles;
}

void HostCpu::cache_invalidate(mem::VAddr va, std::uint64_t len) {
  if (len == 0) return;
  const auto& geo = pt_.geometry();
  mem::VAddr cur = va;
  const mem::VAddr end = va + len;
  while (cur < end) {
    const mem::VAddr page_end = geo.base_of(geo.page_of(cur) + 1);
    const std::uint64_t chunk = (end < page_end ? end : page_end) - cur;
    cache_.invalidate_range(pt_.translate(cur), chunk);
    cur += chunk;
  }
}

}  // namespace cni::cluster
