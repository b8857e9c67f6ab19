// Page diffs for concurrent write sharing.
//
// When several nodes write disjoint parts of one page in concurrent
// intervals (Cholesky's many-columns-per-page case, §3.1), a faulting node
// fetches a full page from one maximal writer and *diffs* from the others,
// merging them locally. A diff is computed against the twin the writer made
// at its first write; make_diff scans the two images as 64-bit words and
// only drops to byte granularity inside words that actually differ.
//
// Runs do not own their bytes: every run is an (offset, arena_off, len)
// triple into one shared `arena` buffer, and the diff's clock is a ClockView
// into the same buffer. A freshly computed diff writes its clock and carves
// its runs out of a single pooled allocation; a diff deserialized from a
// frame aliases the frame's payload buffer by refcount (zero-copy receive);
// and shadow subtraction (runtime.cpp) splits runs with pure index
// arithmetic, never copying payload bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "util/buf_pool.hpp"

namespace cni::dsm {

/// Two differing bytes at distance <= kJoinGap land in the same run (i.e. up
/// to kJoinGap-1 interior equal bytes are absorbed). Matches the historical
/// byte-wise scanner, which broke a run after 8 consecutive equal bytes.
inline constexpr std::size_t kJoinGap = 8;

struct Diff {
  std::uint32_t writer = 0;
  ClockView vc;  ///< writer's clock when the diff was created (in `arena`)

  struct Run {
    std::uint32_t offset = 0;     ///< byte position in the page
    std::uint32_t arena_off = 0;  ///< byte position of the run's data in `arena`
    std::uint32_t len = 0;
  };
  std::vector<Run> runs;
  util::Buf arena;  ///< backing bytes the clock and all runs point into (shared)

  [[nodiscard]] std::span<const std::byte> run_bytes(const Run& r) const {
    return arena.span().subspan(r.arena_off, r.len);
  }

  [[nodiscard]] bool empty() const { return runs.empty(); }

  void serialize(ByteWriter& w) const {
    w.u32(writer);
    w.clock(vc);
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const Run& r : runs) {
      w.u32(r.offset);
      w.bytes(run_bytes(r));
    }
  }

  /// Reads a diff back. When the reader is backed by a util::Buf (a received
  /// frame payload), the clock and the runs alias that buffer directly — no
  /// copy; a reader over a bare span copies the record into a fresh arena.
  static Diff deserialize(ByteReader& r);

  /// Validates and steps over one serialized diff without decoding it;
  /// returns the run bytes it carries.
  static std::uint64_t skip(ByteReader& r);
};

/// Computes the runs where `current` differs from `twin` (same length),
/// merging runs separated by fewer than kJoinGap identical bytes. The
/// result's arena holds a copy of `vc` followed by the run bytes.
Diff make_diff(std::uint32_t writer, ClockView vc,
               std::span<const std::byte> twin, std::span<const std::byte> current);

/// Applies a diff's runs onto `page`.
void apply_diff(const Diff& d, std::span<std::byte> page);

/// Stable sort by (sum of clock entries, writer): a linear extension of
/// happened-before, so chained writes to the same bytes apply oldest first.
/// Concurrent diffs must touch disjoint bytes (DESIGN.md §7). All clocks
/// must have the same size.
void sort_for_apply(std::vector<Diff>& diffs);

}  // namespace cni::dsm
