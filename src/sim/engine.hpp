// Deterministic discrete-event engine.
//
// Events fire in (time, insertion-sequence) order, so two events scheduled
// for the same instant fire in the order they were scheduled — this is what
// makes the whole simulation bit-reproducible run to run.
//
// The pending set is an 8-ary min-heap of (time, sequence, slot) entries;
// each callback waits in a slot table beside it, so a sift moves 20 bytes per
// level instead of the callback. Events are never withdrawn once scheduled:
// step() only ever pops the root, and the wider fan-out keeps sift paths
// short and cache-friendly. Callbacks are InlineFn, so the schedule/fire
// cycle performs no heap allocation for the small captures every hot path
// uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace cni::sim {

namespace detail {

/// Allocator returning 64-byte-aligned storage, so each 8-wide child group
/// of the event heap's time/sequence arrays occupies exactly one cache line.
template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)
  T* allocate(std::size_t n) {
    // cni-lint: allow(hot-path-alloc): this IS the allocator; amortized by
    // the heap's geometric growth, not per-event.
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{64});
  }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheAlignedAlloc<U>&) const noexcept {
    return false;
  }
};

}  // namespace detail

class Engine {
 public:
  using Callback = InlineFn;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must not be in the past).
  void schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` at now() + dt.
  void schedule_after(SimDuration dt, Callback cb) { schedule_at(now_ + dt, std::move(cb)); }

  /// Schedules a network delivery at absolute time `t`. Deliveries draw their
  /// tie-break sequence from a separate biased counter, so a delivery and a
  /// node-local event scheduled for the same instant order by *content*
  /// (local first, then delivery), never by when the fabric happened to route
  /// the transfer. The fabric inserts deliveries in the canonical
  /// (head, src, seq) order, so among deliveries the biased sequence does not
  /// depend on the window schedule either (DESIGN.md §12).
  void schedule_delivery(SimTime t, Callback cb);

  /// Runs events until the queue is empty. Rethrows any exception raised by a
  /// callback (e.g. a failed check inside a simulated thread).
  void run();

  /// Runs events with time strictly < bound; events at or beyond it stay
  /// queued and now() is left at the last executed event. This is the run
  /// loop's primitive: a window [E, E') executes exactly the events below
  /// E', and deliveries routed after it may still be scheduled at any
  /// t >= E' without tripping the past-scheduling check.
  void run_before(SimTime bound);

  /// Time of the earliest pending event, or kNever when the queue is empty.
  /// The run loop peeks this to size the next window.
  [[nodiscard]] SimTime next_time() const {
    return empty() ? kNever : heap_t_[kRoot];
  }

  /// Executes the single next event. Returns false if the queue was empty.
  bool step();

  /// True iff no event is pending.
  [[nodiscard]] bool empty() const { return heap_t_.size() <= kPad; }
  [[nodiscard]] std::size_t pending() const {
    return heap_t_.empty() ? 0 : heap_t_.size() - kPad;
  }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  // The heap arrays carry a 7-element pad so the root sits at index 7 and
  // every 8-child group starts at a multiple of 8 — with the 64-byte-aligned
  // time array, a whole child group is one cache line.
  static constexpr std::uint32_t kPad = 7;
  static constexpr std::uint32_t kRoot = 7;
  // 8-ary beats binary and 4-ary here: min-of-children scans run over the
  // dense time array below (one cache line per level), so the shallower tree
  // wins on the memory-bound large-heap drain.
  static constexpr std::uint32_t kFanout = 8;

  void schedule_with_seq(SimTime t, std::uint64_t seq, Callback cb);

  void sift_up(std::uint32_t i);
  void sift_down(std::uint32_t i);

  /// Delivery sequences live in the top half of the sequence space: a local
  /// event (seq_ counter, starts at 0) can never collide with or sort after a
  /// delivery scheduled for the same time unless 2^63 locals were scheduled.
  static constexpr std::uint64_t kDeliverySeqBias = 1ull << 63;

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t delivery_seq_ = 0;
  std::uint64_t executed_ = 0;
  // The heap, struct-of-arrays: node i is (heap_t_[i], heap_seq_[i],
  // heap_slot_[i]), ordered by (time, insertion sequence). Splitting the
  // arrays keeps the min-of-children scan — the hot loop of every sift —
  // inside one cache line of times per level.
  std::vector<SimTime, detail::CacheAlignedAlloc<SimTime>> heap_t_;
  std::vector<std::uint64_t, detail::CacheAlignedAlloc<std::uint64_t>> heap_seq_;
  std::vector<std::uint32_t> heap_slot_;
  std::vector<Callback> slots_;  ///< the callback of each pending event, by slot
  std::vector<std::uint32_t> free_slots_;
};

/// a + b, saturating at kNever (so "nothing pending" stays kNever).
[[nodiscard]] constexpr SimTime sat_add(SimTime a, SimDuration b) {
  return a > kNever - b ? kNever : a + b;
}

/// Interconnect margins that size the run loop's windows (Cluster::run;
/// atm::Fabric derives them from its timing, DESIGN.md §12).
struct EpochParams {
  /// A send at t cannot affect another node before t + lookahead.
  SimDuration lookahead = 0;
  /// A buffered transfer with head H is final, and may be routed, once every
  /// event at or before H - drain_horizon has run.
  SimDuration drain_horizon = 0;
  /// A buffered head at H cannot deliver before H + pending_bound.
  SimDuration pending_bound = 0;
};

/// End of the next window (an "epoch"), given the earliest pending event
/// (t_min) and the earliest transfer still buffered in the fabric
/// (pending_min; kNever when none): running every event below it can
/// neither miss a delivery nor schedule one into the past.
[[nodiscard]] constexpr SimTime next_epoch_end(SimTime t_min, SimTime pending_min,
                                               const EpochParams& p) {
  const SimTime by_events = sat_add(t_min, p.lookahead);
  const SimTime by_pending = sat_add(pending_min, p.pending_bound);
  return by_events < by_pending ? by_events : by_pending;
}

/// Models a serially-reusable resource (a bus, a link, a NIC processor): jobs
/// queue FIFO and each occupies the resource for its duration.
class ServiceQueue {
 public:
  /// Reserves the resource for `duration` starting no earlier than `now`.
  /// Returns the completion time; the resource is busy until then.
  SimTime occupy(SimTime now, SimDuration duration) {
    const SimTime start = now > busy_until_ ? now : busy_until_;
    busy_until_ = start + duration;
    total_busy_ += duration;
    ++jobs_;
    return busy_until_;
  }

  /// When the resource next becomes free.
  [[nodiscard]] SimTime busy_until() const { return busy_until_; }
  [[nodiscard]] SimDuration total_busy() const { return total_busy_; }
  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }

 private:
  SimTime busy_until_ = 0;
  SimDuration total_busy_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace cni::sim
