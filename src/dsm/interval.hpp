// Intervals and write notices (lazy release consistency).
//
// A node's execution is divided into intervals delimited by releases
// (lock releases and barrier arrivals). Each interval records which shared
// pages the node dirtied — its *write notices*. An acquire propagates every
// interval the acquirer has not yet seen; the acquirer invalidates the
// noticed pages, deferring data movement until it actually faults (the
// "lazy invalidate" protocol the paper runs, after Keleher et al.).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"

namespace cni::dsm {

using PageId = std::uint64_t;  ///< shared-region page index

struct Interval {
  std::uint32_t writer = 0;  ///< node that created the interval
  std::uint32_t index = 0;   ///< per-writer interval sequence number (1-based)
  VectorClock vc;            ///< writer's clock at interval creation
  std::vector<PageId> pages; ///< write notices

  void serialize(ByteWriter& w) const {
    w.u32(writer);
    w.u32(index);
    w.clock(vc);
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageId p : pages) w.u64(p);
  }

  static Interval deserialize(ByteReader& r) {
    Interval iv;
    iv.writer = r.u32();
    iv.index = r.u32();
    iv.vc = r.clock();
    const std::uint32_t n = r.u32();
    // Bounds before allocation: each page id is 8 wire bytes, so a count
    // the remaining payload cannot hold must not size the vector.
    if (std::uint64_t{n} * 8 > r.remaining()) {
      throw WireError("truncated DSM payload: interval page count");
    }
    iv.pages.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) iv.pages.push_back(r.u64());
    return iv;
  }
};

/// Every interval a node knows about — its own and those received in grants
/// and barrier releases. A releaser forwards the subset the acquirer has not
/// seen, which makes causality transitive. The store owns the node's one copy
/// of each interval: a write notice names its interval by (writer, index) and
/// resolves the clock through at().
///
/// Intervals of one writer always arrive densely (an interval's clock covers
/// the writer's earlier intervals, and senders forward complete unseen
/// suffixes), so each writer's log is a plain vector indexed by
/// interval-number-1, and the logs sit in a vector indexed by writer —
/// making at() O(1) and unseen_by() O(writers + answer). This matters:
/// fine-grained apps create hundreds of thousands of intervals.
class IntervalStore {
 public:
  /// Moves `iv` in if absent. Returns the stored interval (valid until the
  /// next insert of the same writer), or nullptr if it was already stored.
  const Interval* insert(Interval&& iv) {
    if (iv.writer >= per_writer_.size()) per_writer_.resize(iv.writer + std::size_t{1});
    std::vector<Interval>& log = per_writer_[iv.writer];
    if (iv.index <= log.size()) return nullptr;  // already known
    CNI_CHECK_MSG(iv.index == log.size() + 1,
                  "interval gap: causal delivery violated");
    log.push_back(std::move(iv));
    ++size_;
    return &log.back();
  }

  [[nodiscard]] bool contains(std::uint32_t writer, std::uint32_t index) const {
    return writer < per_writer_.size() && index >= 1 &&
           index <= per_writer_[writer].size();
  }

  /// The stored interval `index` of `writer`. Every pending write notice
  /// names one, so a miss is a protocol bug and aborts.
  [[nodiscard]] const Interval& at(std::uint32_t writer, std::uint32_t index) const {
    CNI_CHECK_MSG(contains(writer, index), "notice names an interval not in the store");
    return per_writer_[writer][index - 1];
  }

  /// Intervals with index beyond `seen[writer]`, in deterministic
  /// (writer, index) order.
  [[nodiscard]] std::vector<const Interval*> unseen_by(const VectorClock& seen) const {
    std::vector<const Interval*> out;
    std::size_t n = 0;
    for (std::uint32_t w = 0; w < per_writer_.size(); ++w) {
      n += per_writer_[w].size() - std::min<std::size_t>(per_writer_[w].size(), seen[w]);
    }
    out.reserve(n);
    for (std::uint32_t w = 0; w < per_writer_.size(); ++w) {
      const std::vector<Interval>& log = per_writer_[w];
      for (std::size_t i = seen[w]; i < log.size(); ++i) out.push_back(&log[i]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::vector<std::vector<Interval>> per_writer_;  ///< indexed by writer
  std::size_t size_ = 0;
};

}  // namespace cni::dsm
