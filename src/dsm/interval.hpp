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
// once into the simulation's IntervalLog, every node's IntervalStore refers
// to that one copy, forwards it with one memcpy, and reads its clock and
// notices in place.
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
/// is empty, in an IntervalLog's arena or a frame a handler is reading.
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

/// Every interval record of one simulation, stored once (DsmSystem owns
/// it). The writer logs a record when it closes the interval; every later
/// note() of the same (writer, index), from any node's store, copies
/// nothing and CNI_CHECKs that the bytes equal the logged ones, so a
/// forwarding bug still fails loudly.
///
/// Records are copied into an append-only arena of Buf chunks (4 KB,
/// doubling up to 64 KB; a larger record gets a chunk of its own). Chunks
/// never move and no record straddles two, so the views record() hands out
/// stay valid for the life of the log. A writer's records arrive densely
/// (an interval's clock covers the writer's earlier ones), so each writer's
/// spans are a plain vector indexed by interval-number-1.
class IntervalLog {
 public:
  static constexpr std::size_t kFirstChunkBytes = 4 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 64 * 1024;

  /// Logs `iv` if it is its writer's next record; otherwise checks it
  /// against the logged one.
  void note(const Interval& iv) {
    if (iv.writer >= per_writer_.size()) per_writer_.resize(iv.writer + std::size_t{1});
    std::vector<std::span<const std::byte>>& log = per_writer_[iv.writer];
    if (iv.index <= log.size()) {
      CNI_CHECK_MSG(std::ranges::equal(log[iv.index - 1], iv.wire),
                    "interval record differs from the logged one");
      return;
    }
    CNI_CHECK_MSG(iv.index == log.size() + 1, "interval gap: causal delivery violated");
    log.push_back(copy_in(iv.wire));
  }

  /// The logged record of interval `index` (1-based) of `writer`.
  [[nodiscard]] std::span<const std::byte> record(std::uint32_t writer,
                                                  std::uint32_t index) const {
    return per_writer_[writer][index - 1];
  }

  /// Arena bytes held: the logged records, the open chunk's free tail, and a
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
};

/// Every interval a node knows about — its own and those received in grants
/// and barrier releases. A releaser forwards the subset the acquirer has not
/// seen, which makes causality transitive. A write notice names its interval
/// by (writer, index) and resolves the clock through at().
///
/// Intervals of one writer always arrive densely (senders forward complete
/// unseen suffixes), so what a store knows is a prefix of each writer's
/// records: one count per writer, the records themselves in the shared
/// IntervalLog. That makes at() O(1) and unseen_by() O(writers + answer),
/// which matters: fine-grained apps create hundreds of thousands of
/// intervals.
class IntervalStore {
 public:
  explicit IntervalStore(IntervalLog& log) : log_(log) {}

  /// Adds `iv` to what this store knows, noting it in the log. Returns
  /// false, touching nothing, if it was already known.
  bool insert(const Interval& iv) {
    if (iv.writer >= known_.size()) known_.resize(iv.writer + std::size_t{1});
    std::uint32_t& known = known_[iv.writer];
    if (iv.index <= known) return false;
    CNI_CHECK_MSG(iv.index == known + 1, "interval gap: causal delivery violated");
    log_.note(iv);
    ++known;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t writer, std::uint32_t index) const {
    return writer < known_.size() && index >= 1 && index <= known_[writer];
  }

  /// The stored interval `index` of `writer`. Every pending write notice
  /// names one, so a miss is a protocol bug and aborts.
  [[nodiscard]] Interval at(std::uint32_t writer, std::uint32_t index) const {
    CNI_CHECK_MSG(contains(writer, index), "notice names an interval not in the store");
    return Interval{writer, index, {}, log_.record(writer, index)};
  }

  /// Intervals with index beyond `seen[writer]`, in deterministic
  /// (writer, index) order.
  [[nodiscard]] std::vector<Interval> unseen_by(ClockView seen) const {
    std::vector<Interval> out;
    std::size_t n = 0;
    for (std::uint32_t w = 0; w < known_.size(); ++w) {
      n += known_[w] - std::min(known_[w], seen[w]);
    }
    out.reserve(n);
    for (std::uint32_t w = 0; w < known_.size(); ++w) {
      for (std::uint32_t i = seen[w] + 1; i <= known_[w]; ++i) {
        out.push_back(Interval{w, i, {}, log_.record(w, i)});
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  IntervalLog& log_;
  std::vector<std::uint32_t> known_;  ///< per writer: intervals 1..known_[w] are known
  std::size_t size_ = 0;
};

}  // namespace cni::dsm
