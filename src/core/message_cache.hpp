// The Message Cache (paper §2.2) — the CNI's central mechanism.
//
// The board keeps page-sized *cached buffers* in its dual-ported memory,
// each bound to one host virtual-memory page through the *buffer map*.
// Bound buffers are kept consistent with host memory by snooping every
// write transaction on the memory bus (physical target -> RTLB -> virtual
// page -> buffer map). Three operations use it:
//
//   transmit caching — a transmit whose source pages are all bound skips the
//     host->board DMA entirely;
//   receive caching  — an arriving DSM page with the header's cache bit set
//     is bound on its way to host memory, so a future migration of the same
//     page transmits straight from the board;
//   consistency snooping — CPU writes (write-backs, flushes, write-throughs)
//     and DMA writes that hit a bound page update the buffer in place.
//
// Replacement is approximate LRU: a clock (second-chance) sweep over the
// buffers, which is exactly the kind of "approximate LRU order" hardware
// implements with reference bits.
//
// The model is metadata-only: payload bytes always come from the
// authoritative host memory at the simulated completion instant, which the
// snooping protocol guarantees equals the buffer contents (see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "mem/page.hpp"
#include "util/flat_map.hpp"

namespace cni::core {

class MessageCache {
 public:
  /// `capacity_bytes` is rounded down to whole buffers; each buffer is one
  /// host page (paper: "we have fixed the size of a buffer in the Message
  /// Cache to be the same as that of a page").
  MessageCache(mem::PageGeometry geometry, std::uint64_t capacity_bytes);

  [[nodiscard]] std::size_t buffer_count() const { return buffers_.size(); }
  [[nodiscard]] std::size_t bound_count() const { return map_.size(); }
  [[nodiscard]] const mem::PageGeometry& geometry() const { return geo_; }

  /// Is every page of [va, va+len) bound to a valid buffer?
  [[nodiscard]] bool contains(mem::VAddr va, std::uint64_t len) const;

  /// Transmit-side probe: counts one lookup, touches the pages on a hit.
  /// Returns true (hit) iff the whole range is resident.
  bool lookup_tx(mem::VAddr va, std::uint64_t len);

  /// Binds every page of [va, va+len) to a buffer, evicting approximate-LRU
  /// victims as needed. Used on a cacheable transmit miss (after the DMA
  /// pulls the data on board) and on receive caching.
  void insert(mem::VAddr va, std::uint64_t len);

  /// A snooped write to virtual page address range [va, va+len): updates the
  /// bound buffer if present. Returns true if a buffer absorbed the write.
  bool snoop_write(mem::VAddr va, std::uint64_t len);

  // Counters (mirrored into NodeStats by the board).
  [[nodiscard]] std::uint64_t tx_lookups() const { return tx_lookups_; }
  [[nodiscard]] std::uint64_t tx_hits() const { return tx_hits_; }
  [[nodiscard]] std::uint64_t inserts() const { return inserts_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t snoop_updates() const { return snoop_updates_; }

 private:
  struct Buffer {
    mem::PageNum vpn = 0;
    bool valid = false;
    bool referenced = false;  // clock reference bit
  };

  /// Binds one page, running the clock hand to find a victim if needed.
  void bind_page(mem::PageNum vpn);

  mem::PageGeometry geo_;
  std::vector<Buffer> buffers_;
  util::U64FlatMap<std::uint32_t> map_;  // the buffer map: vpn -> buffer index
  std::size_t clock_hand_ = 0;

  std::uint64_t tx_lookups_ = 0;
  std::uint64_t tx_hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t snoop_updates_ = 0;
};

}  // namespace cni::core
