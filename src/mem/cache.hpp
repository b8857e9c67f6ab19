// Two-level direct-mapped CPU cache model (tags only).
//
// Models the Table 1 hierarchy: 32 KB unified L1 (1 cycle), 1 MB unified L2
// (10 cycles), direct-mapped, write-back, 20-cycle memory latency. The model
// is data-less: the one true copy of every byte lives in host memory arrays,
// and the cache contributes timing, write-back bus traffic (which the CNI
// snooper consumes) and flush costs. DESIGN.md §5 covers its host-time design.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/page.hpp"

namespace cni::mem {

struct CacheParams {
  std::uint64_t l1_size = 32 * 1024;
  std::uint64_t l2_size = 1024 * 1024;
  std::uint64_t line_size = 32;
  std::uint32_t l1_latency_cycles = 1;
  std::uint32_t l2_latency_cycles = 10;
  std::uint32_t memory_latency_cycles = 20;
  bool write_back = true;  ///< false = write-through (every write hits the bus)
};

/// Result of one modelled access.
struct CacheAccess {
  std::uint32_t cpu_cycles = 0;       ///< total CPU-cycle cost of the access
  bool l1_hit = false;
  bool l2_hit = false;                ///< meaningful only when !l1_hit
  bool wrote_back = false;            ///< a dirty L2 victim went to memory
  PAddr writeback_line = 0;           ///< line address of that victim
  bool bus_write = false;             ///< a write reached the memory bus
  PAddr bus_write_line = 0;
};

class CacheModel {
 public:
  explicit CacheModel(const CacheParams& p);

  /// Models a load (is_write=false) or store of up to one line at `addr`.
  /// Accesses never straddle lines in our callers (they are <= 8 bytes).
  CacheAccess access(PAddr addr, bool is_write) {
    ++accesses_;
    const PAddr line = line_addr(addr);
    Line& e1 = l1_[l1_index(line)];
    if (!holds(e1, line)) return miss(line, is_write);
    ++l1_hits_;
    CacheAccess r{.cpu_cycles = params_.l1_latency_cycles, .l1_hit = true};
    if (is_write) store(e1, line, r);
    return r;
  }

  /// Writes back (and keeps valid/clean) every dirty line intersecting
  /// [addr, addr+len). Returns the dirty line addresses, in address order,
  /// and adds the CPU cost to *cycles. This is the "flush before an
  /// impending message transfer" of paper §2.2.
  std::vector<PAddr> flush_range(PAddr addr, std::uint64_t len, std::uint64_t* cycles);

  /// Drops every line intersecting the range without writing back (used when
  /// a DMA overwrites host memory underneath the cache).
  void invalidate_range(PAddr addr, std::uint64_t len);

  [[nodiscard]] const CacheParams& params() const { return params_; }

  // Counters for tests and ablation benches.
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t l1_hits() const { return l1_hits_; }
  [[nodiscard]] std::uint64_t l2_hits() const { return l2_hits_; }
  [[nodiscard]] std::uint64_t writebacks() const { return writebacks_; }

 private:
  /// One word per line: its address | kValid | kDirty (a line is >= 4 bytes).
  using Line = std::uint64_t;
  static constexpr Line kValid = 1;
  static constexpr Line kDirty = 2;
  static bool holds(Line e, PAddr line) { return (e & ~kDirty) == (line | kValid); }
  static bool dirty(Line e) { return (e & (kValid | kDirty)) == (kValid | kDirty); }

  [[nodiscard]] PAddr line_addr(PAddr a) const { return a & ~(params_.line_size - 1); }
  std::size_t l1_index(PAddr line) const { return (line >> line_shift_) & l1_mask_; }
  std::size_t l2_index(PAddr line) const { return (line >> line_shift_) & l2_mask_; }

  /// A store hitting L1 entry `e1`; L2 inherits its dirtiness on eviction.
  void store(Line& e1, PAddr line, CacheAccess& r) const {
    if (params_.write_back) {
      e1 |= kDirty;
    } else {
      r.bus_write = true;
      r.bus_write_line = line;
    }
  }

  /// Everything but an L1 hit: L2 lookup or fill, L1 victim, L1 refill. The
  /// first miss allocates both levels in place of the L1 sentinel.
  CacheAccess miss(PAddr line, bool is_write);

  CacheParams params_;
  unsigned line_shift_ = 0;  ///< log2(line_size)
  std::size_t l1_mask_ = 0;  ///< L1 lines - 1; 0 (the sentinel's index) until the first miss
  std::size_t l2_mask_ = 0;  ///< L2 lines - 1
  std::vector<Line> l1_ = std::vector<Line>(1);  ///< one invalid line until the first miss
  std::vector<Line> l2_;     ///< empty until the first miss
  std::uint64_t accesses_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace cni::mem
