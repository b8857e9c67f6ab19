// Per-node, per-page DSM state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dsm/diff.hpp"
#include "dsm/vector_clock.hpp"
#include "mem/page.hpp"
#include "util/buf_pool.hpp"

namespace cni::dsm {

enum class PageMode : std::uint8_t {
  kInvalid,    ///< reads and writes fault
  kReadOnly,   ///< writes fault (twin creation)
  kReadWrite,  ///< full access; a twin records the pre-write image
};

/// An unapplied write notice: `writer` dirtied this page in its interval
/// `index`. Kept until the next fault fetches the data. A notice is a
/// reference, not a copy: the interval's wire record, clock included, lives
/// once in the simulation's IntervalLog, and the node's
/// IntervalStore::at(writer, index) resolves it.
struct Notice {
  std::uint32_t writer = 0;
  std::uint32_t index = 0;
};

struct PageEntry {
  PageMode mode = PageMode::kInvalid;
  bool ever_valid = false;  ///< page has held a coherent base copy at least once

  // cni-lint: allow(payload-copy): the page frame models host memory itself,
  // not a wire payload — it is the ground truth payloads are built from.
  std::vector<std::byte> data;   ///< the node's frame (allocated on first touch)
  /// Pre-write image (nonempty while writing): a pooled copy, or the
  /// system's shared zero page, which nothing writes through.
  util::Buf twin;
  std::vector<Diff> retained;    ///< own per-interval diffs (exact vc tags)
  std::vector<Notice> pending;   ///< unapplied notices: newest per writer, by writer

  /// The causal point the current bytes represent: everything at or below
  /// this clock is already folded into `data`. Diff requests carry it as a
  /// floor so writers only ship newer diffs.
  VectorClock content_vc;

  // Physical base for the fast access path; every fault sets it.
  mem::PAddr pa_base = 0;

  /// Records a write notice. A writer's intervals arrive in index order, so
  /// `n` replaces its writer's pending notice (readers want only per-writer
  /// maxima, DESIGN.md §10).
  void add_notice(Notice n) {
    auto at = std::ranges::lower_bound(pending, n.writer, {}, &Notice::writer);
    if (at == pending.end() || at->writer != n.writer) at = pending.insert(at, n);
    at->index = n.index;
  }

  [[nodiscard]] bool readable() const { return mode != PageMode::kInvalid; }
  [[nodiscard]] bool writable() const { return mode == PageMode::kReadWrite; }
};

}  // namespace cni::dsm
