// Metrics registry: named gauges and log-2 latency histograms.
//
// Handles are resolved by name exactly once, at setup (board/runtime
// constructors); the hot path touches a histogram bucket or a gauge value —
// no string lookups, no allocation after init (enforced by the hot-path
// rules in scripts/lint_cni.py, which cover src/obs/).
//
// Counters are not registered here: a node's counters are its
// sim::NodeStats fields, which Cluster::snapshot copies and the run report
// names through NodeStats::fields().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cni::obs {

/// Fixed-bucket base-2 logarithmic histogram. Bucket i counts values whose
/// bit width is i (bucket 0: value 0; bucket i: 2^(i-1) <= v < 2^i), so one
/// 64-entry array covers the full uint64 range — picosecond latencies from
/// sub-nanosecond to hours land in distinct buckets with ~2x resolution.
class Hist {
 public:
  static constexpr std::uint32_t kBuckets = 65;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] static std::uint32_t bucket_of(std::uint64_t v) {
    return static_cast<std::uint32_t>(64 - static_cast<std::uint32_t>(__builtin_clzll(v | 1)) -
                                      (v == 0 ? 1 : 0));
  }
  /// Inclusive upper bound of bucket i (the value reported for percentiles).
  [[nodiscard]] static std::uint64_t bucket_bound(std::uint32_t i) {
    return i == 0 ? 0 : (i >= 64 ? ~0ULL : (1ULL << i) - 1);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::uint32_t i) const { return buckets_[i]; }

  /// Upper bound of the bucket containing the p-th percentile (p in 0..100).
  /// The true max is reported for p >= 100 so `percentile(100) == max()`.
  [[nodiscard]] std::uint64_t percentile(double p) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// A last-value gauge with a high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// One node's histograms and gauges. Registration happens at setup; each
/// value is its own allocation, so every handed-out pointer stays stable for
/// the life of the registry, and an empty registry allocates nothing.
class Metrics {
 public:
  [[nodiscard]] Hist* histogram(const std::string& name) {
    for (const auto& e : hists_) {
      if (e->name == name) return &e->hist;
    }
    return &hists_.emplace_back(std::make_unique<HistEntry>(HistEntry{name, Hist{}}))->hist;
  }

  [[nodiscard]] Gauge* gauge(const std::string& name) {
    for (const auto& e : gauges_) {
      if (e->name == name) return &e->gauge;
    }
    return &gauges_.emplace_back(std::make_unique<GaugeEntry>(GaugeEntry{name, Gauge{}}))->gauge;
  }

  /// fn(name, const Hist&) in registration order.
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (const auto& e : hists_) fn(e->name, e->hist);
  }

  /// fn(name, const Gauge&) in registration order.
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& e : gauges_) fn(e->name, e->gauge);
  }

 private:
  struct HistEntry {
    std::string name;
    Hist hist;
  };
  struct GaugeEntry {
    std::string name;
    Gauge gauge;
  };

  std::vector<std::unique_ptr<HistEntry>> hists_;
  std::vector<std::unique_ptr<GaugeEntry>> gauges_;
};

}  // namespace cni::obs
