// Page table, TLB and reverse TLB.
//
// The CNI board keeps "a TLB and a RTLB which keeps mappings between host
// virtual and physical memory addresses and permits virtually addressed DMA
// operations" (§2.2). The host page table is the authority; the board-side
// TLB caches VA->PA for DMA and the RTLB caches PA->VA so the snooper can
// turn a snooped physical write target back into the virtual buffer it may
// have cached.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/page.hpp"
#include "util/flat_map.hpp"

namespace cni::mem {

/// Host page table for one node: allocates physical frames on first touch.
class PageTable {
 public:
  explicit PageTable(PageGeometry geometry) : geo_(geometry) {}

  [[nodiscard]] const PageGeometry& geometry() const { return geo_; }

  /// Returns the physical frame for `vpn`, allocating one if needed.
  PageNum frame_of(PageNum vpn);

  /// Translates a full virtual address (allocating on first touch).
  PAddr translate(VAddr va);

  /// Reverse lookup: the vpn mapped to `ppn`, if any. The snoop path
  /// resolves bus addresses through it.
  [[nodiscard]] std::optional<PageNum> vpn_of(PageNum ppn) const;

  [[nodiscard]] std::size_t mapped_pages() const { return va_to_pa_.size(); }

 private:
  PageGeometry geo_;
  // Flat open-addressed tables: TLB/RTLB miss resolution consults these on
  // the bus-snoop path, so probes should stay within one cache line.
  util::U64FlatMap<PageNum> va_to_pa_;
  util::U64FlatMap<PageNum> pa_to_va_;
  PageNum next_frame_ = 0x100;  // leave low frames for "OS"; arbitrary
};

/// A direct-mapped translation cache (used for both the board TLB and RTLB).
/// Data-less: it consults the page table on miss and records the cost. Its
/// entry array is allocated at the first lookup; until then every entry is
/// invalid. Pages are never unmapped, so no translation goes stale and
/// nothing invalidates an entry.
class Tlb {
 public:
  Tlb(std::size_t entries, std::uint32_t miss_penalty_cycles);

  /// Looks up `key` (a vpn for the TLB, a ppn for the RTLB). Returns the
  /// translation via the page-table functor and adds the miss penalty to
  /// *cycles on a miss.
  template <typename Resolve>
  std::optional<PageNum> lookup(PageNum key, Resolve&& resolve, std::uint64_t* cycles) {
    ++lookups_;
    if (entries_.empty()) entries_.resize(size_);
    Entry& e = entries_[key % size_];
    if (e.valid && e.key == key) {
      ++hits_;
      return e.value;
    }
    if (cycles != nullptr) *cycles += miss_penalty_;
    std::optional<PageNum> v = resolve(key);
    if (v.has_value()) {
      e.valid = true;
      e.key = key;
      e.value = *v;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint32_t miss_penalty() const { return miss_penalty_; }

 private:
  struct Entry {
    PageNum key = 0;
    PageNum value = 0;
    bool valid = false;
  };
  std::size_t size_;            ///< entries the TLB models
  std::vector<Entry> entries_;  ///< empty until the first lookup
  std::uint32_t miss_penalty_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace cni::mem
