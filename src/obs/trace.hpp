// Deterministic trace recorder: per-node ring buffers of simulated-time
// event records.
//
// Records are stamped with sim::SimTime only — never wall clock — so a trace
// is a pure function of the simulation and two identical runs produce
// byte-identical exports (the determinism lint keeps wall clocks out of
// src/, including this directory). The ring is sized once at construction
// and overwrites its oldest record when full, counting what it dropped:
// recording never allocates, so enabling tracing cannot perturb the
// simulated timing or the allocation-free hot paths.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/taxonomy.hpp"
#include "sim/time.hpp"

namespace cni::obs {

/// One trace record, 40 bytes. `dur` is zero for instants and counters; for
/// counters `arg0` carries the sampled value.
struct TraceRecord {
  sim::SimTime time = 0;     ///< event (or span start) time, ps
  sim::SimDuration dur = 0;  ///< span duration, ps
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint16_t node = 0;
  Component component = Component::kMCache;
  Event event = Event::kMCacheLookupHit;
  Kind kind = Kind::kInstant;
  std::uint8_t pad[3] = {};

  bool operator==(const TraceRecord& o) const {
    return time == o.time && dur == o.dur && arg0 == o.arg0 && arg1 == o.arg1 &&
           node == o.node && component == o.component && event == o.event &&
           kind == o.kind;
  }
};
static_assert(sizeof(TraceRecord) == 40);

/// Fixed-capacity overwrite-oldest ring of trace records, one per node.
class TraceRing {
 public:
  /// Storage is allocated here, once; record() never allocates.
  explicit TraceRing(std::uint32_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

  void record(const TraceRecord& r) {
    ring_[static_cast<std::size_t>(total_ % ring_.size())] = r;
    ++total_;
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  /// Records ever recorded, including those since overwritten.
  [[nodiscard]] std::uint64_t recorded() const { return total_; }
  /// Records lost to wrap-around (oldest-first).
  [[nodiscard]] std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  /// Live records currently held.
  [[nodiscard]] std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
  }

  void clear() { total_ = 0; }

  /// Visits live records oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::uint64_t first = total_ - n;
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[static_cast<std::size_t>((first + i) % ring_.size())]);
    }
  }

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t total_ = 0;
};

}  // namespace cni::obs
