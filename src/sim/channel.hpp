// Synchronisation primitives for simulated threads.
//
// These are *simulation-domain* primitives: they park/resume SimThreads in
// simulated time. Because execution is strictly serialized they need no
// atomics; the invariant they maintain is that wake() is only ever applied
// to a thread parked in block().
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "sim/process.hpp"
#include "util/check.hpp"

namespace cni::sim {

/// A condition-variable-like wait queue. Waiters always re-check their
/// predicate after waking (the condition-loop idiom), so notify_all is always
/// safe and notify_one is an optimisation.
class WaitQueue {
 public:
  /// Parks `self` until `pred()` holds. May consume multiple wakeups.
  template <typename Pred>
  void wait(SimThread& self, Pred&& pred) {
    while (!pred()) {
      waiters_.push_back(&self);
      self.block();
    }
  }

  /// Wakes every waiter at the current instant.
  void notify_all() {
    std::vector<SimThread*> ws;
    ws.swap(waiters_);
    for (SimThread* w : ws) w->wake();
  }

  /// Wakes the longest-waiting waiter, if any.
  void notify_one() {
    if (waiters_.empty()) return;
    SimThread* w = waiters_.front();
    waiters_.erase(waiters_.begin());
    w->wake();
  }

  [[nodiscard]] bool has_waiters() const { return !waiters_.empty(); }
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  std::vector<SimThread*> waiters_;
};

/// An unbounded FIFO channel. send() never blocks (events use it to hand
/// results to threads); receive() parks the calling thread until a value is
/// available.
template <typename T>
class SimChannel {
 public:
  void send(T value) {
    queue_.push_back(std::move(value));
    ready_.notify_one();
  }

  [[nodiscard]] T receive(SimThread& self) {
    ready_.wait(self, [this] { return !queue_.empty(); });
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  /// Non-blocking receive; returns true and fills `out` if a value was ready.
  bool try_receive(T& out) {
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

 private:
  std::deque<T> queue_;
  WaitQueue ready_;
};

}  // namespace cni::sim
