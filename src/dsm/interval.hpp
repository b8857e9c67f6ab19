// Intervals and write notices (lazy release consistency).
//
// A node's execution is divided into intervals delimited by releases
// (lock releases and barrier arrivals). Each interval records which shared
// pages the node dirtied — its *write notices*. An acquire propagates every
// interval the acquirer has not yet seen; the acquirer invalidates the
// noticed pages, deferring data movement until it actually faults (the
// "lazy invalidate" protocol the paper runs, after Keleher et al.).
//
// An interval *is* its wire record (DESIGN.md §10): the writer encodes it
// once, every node copies it once into its IntervalStore's arena, forwards
// it with one memcpy, and reads its clock and notices in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "util/buf_pool.hpp"

namespace cni::dsm {

using PageId = std::uint64_t;  ///< shared-region page index

/// One interval as its wire record `wire`: u32 writer, u32 index, the
/// writer's clock (u32 n, n x u32), u32 m, m x u64 noticed pages. The record
/// lies in `keep` (a received frame, or encode()'s buffer) or, when `keep`
/// is empty, in an IntervalStore's arena or a frame a handler is reading.
struct Interval {
  std::uint32_t writer = 0;  ///< node that created the interval
  std::uint32_t index = 0;   ///< per-writer interval sequence number (1-based)
  util::Buf keep;            ///< pins `wire`, or empty
  std::span<const std::byte> wire;

  /// The writer's clock at interval creation.
  [[nodiscard]] ClockView vc() const { return ClockView(wire.data() + 12, count_at(8)); }

  /// The write notices.
  [[nodiscard]] WireArray<PageId> pages() const {
    const std::size_t at = 12 + 4 * count_at(8);
    return WireArray<PageId>(wire.data() + at + 4, count_at(at));
  }

  /// Encodes a new interval's record, once.
  template <class Pages>
  static Interval encode(std::uint32_t writer, std::uint32_t index, ClockView vc,
                         const Pages& pages) {
    ByteWriter w(0, 16 + vc.bytes().size() + 8 * pages.size());
    w.u32(writer);
    w.u32(index);
    w.clock(vc);
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageId p : pages) w.u64(p);
    Interval iv{writer, index, w.take(), {}};
    iv.wire = iv.keep.span();
    return iv;
  }

  /// Appends the record in one copy.
  void serialize(ByteWriter& w) const { w.append(wire); }

  /// Reads one record, validating every count before it is used. The result
  /// aliases a Buf-backed reader's buffer and pins it (no allocation); a
  /// record read from a bare span is copied into a fresh Buf.
  static Interval deserialize(ByteReader& r) {
    Interval iv = view(r);
    if (r.backing()) {
      iv.keep = r.backing();
    } else {
      iv.keep = util::Buf::alloc(iv.wire.size());
      std::copy(iv.wire.begin(), iv.wire.end(), iv.keep.data());
      iv.wire = iv.keep.span();
    }
    return iv;
  }

  /// deserialize() without the pin or the copy: valid while the reader's
  /// bytes live (a handler reading the frame it was given).
  static Interval view(ByteReader& r) {
    const std::span<const std::byte> rest = r.rest();
    Interval iv;
    iv.writer = r.u32();
    iv.index = r.u32();
    (void)r.clock_view();
    const std::uint32_t n = r.u32();
    (void)r.take(std::size_t{n} * 8);  // throws if the pages are not all there
    iv.wire = rest.first(rest.size() - r.remaining());
    return iv;
  }

 private:
  [[nodiscard]] std::size_t count_at(std::size_t at) const {
    std::uint32_t n;
    std::memcpy(&n, wire.data() + at, sizeof n);
    return n;
  }
};

/// Every interval a node knows about — its own and those received in grants
/// and barrier releases. A releaser forwards the subset the acquirer has not
/// seen, which makes causality transitive. The store holds the node's one
/// copy of each record: a write notice names its interval by (writer, index)
/// and resolves the clock through at().
///
/// Records are copied into an append-only arena of Buf chunks (4 KB,
/// doubling up to 64 KB; a larger record gets a chunk of its own). Chunks
/// never move and no record straddles two, so the views at() and unseen_by()
/// hand out stay valid for the life of the store. An interval costs its
/// record bytes plus one 16-byte span.
///
/// Intervals of one writer always arrive densely (an interval's clock covers
/// the writer's earlier intervals, and senders forward complete unseen
/// suffixes), so each writer's log is a plain vector indexed by
/// interval-number-1, and the logs sit in a vector indexed by writer —
/// making at() O(1) and unseen_by() O(writers + answer). This matters:
/// fine-grained apps create hundreds of thousands of intervals.
class IntervalStore {
 public:
  static constexpr std::size_t kFirstChunkBytes = 4 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 64 * 1024;

  /// Copies `iv`'s record in if absent. Returns false, copying nothing, if
  /// it was already stored.
  bool insert(const Interval& iv) {
    if (iv.writer >= per_writer_.size()) per_writer_.resize(iv.writer + std::size_t{1});
    std::vector<std::span<const std::byte>>& log = per_writer_[iv.writer];
    if (iv.index <= log.size()) return false;  // already known
    CNI_CHECK_MSG(iv.index == log.size() + 1,
                  "interval gap: causal delivery violated");
    log.push_back(copy_in(iv.wire));
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t writer, std::uint32_t index) const {
    return writer < per_writer_.size() && index >= 1 &&
           index <= per_writer_[writer].size();
  }

  /// The stored interval `index` of `writer`. Every pending write notice
  /// names one, so a miss is a protocol bug and aborts.
  [[nodiscard]] Interval at(std::uint32_t writer, std::uint32_t index) const {
    CNI_CHECK_MSG(contains(writer, index), "notice names an interval not in the store");
    return Interval{writer, index, {}, per_writer_[writer][index - 1]};
  }

  /// Intervals with index beyond `seen[writer]`, in deterministic
  /// (writer, index) order.
  [[nodiscard]] std::vector<Interval> unseen_by(ClockView seen) const {
    std::vector<Interval> out;
    std::size_t n = 0;
    for (std::uint32_t w = 0; w < per_writer_.size(); ++w) {
      n += per_writer_[w].size() - std::min<std::size_t>(per_writer_[w].size(), seen[w]);
    }
    out.reserve(n);
    for (std::uint32_t w = 0; w < per_writer_.size(); ++w) {
      const std::vector<std::span<const std::byte>>& log = per_writer_[w];
      for (std::size_t i = seen[w]; i < log.size(); ++i) {
        out.push_back(Interval{w, static_cast<std::uint32_t>(i + 1), {}, log[i]});
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Arena bytes held: the stored records, the open chunk's free tail, and a
  /// tail shorter than one record at the end of each full chunk.
  [[nodiscard]] std::size_t bytes() const { return held_; }

 private:
  std::span<const std::byte> copy_in(std::span<const std::byte> rec) {
    if (chunks_.empty() || used_ + rec.size() > chunks_.back().size()) {
      const std::size_t next =
          chunks_.empty() ? kFirstChunkBytes
                          : std::min(2 * chunks_.back().size(), kMaxChunkBytes);
      chunks_.push_back(util::Buf::alloc(std::max(next, rec.size())));
      held_ += chunks_.back().size();
      used_ = 0;
    }
    std::byte* at = chunks_.back().data() + used_;
    std::copy(rec.begin(), rec.end(), at);
    used_ += rec.size();
    return {at, rec.size()};
  }

  std::vector<util::Buf> chunks_;  ///< the arena; only the last one has room
  std::size_t used_ = 0;           ///< bytes filled in chunks_.back()
  std::size_t held_ = 0;           ///< Σ chunk sizes
  std::vector<std::vector<std::span<const std::byte>>> per_writer_;  ///< by writer
  std::size_t size_ = 0;
};

}  // namespace cni::dsm
