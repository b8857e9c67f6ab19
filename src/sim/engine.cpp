#include "sim/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cni::sim {

namespace {

/// The heap order (time, then sequence) as one 128-bit key: comparing two
/// keys is a cmp/sbb pair, which a min scan turns into conditional moves.
using HeapKey = unsigned __int128;

constexpr HeapKey make_key(SimTime t, std::uint64_t seq) {
  return (static_cast<HeapKey>(t) << 64) | seq;
}

}  // namespace

EventId Engine::schedule_at(SimTime t, Callback cb) {
  return schedule_with_seq(t, seq_++, std::move(cb));
}

EventId Engine::schedule_delivery(SimTime t, Callback cb) {
  return schedule_with_seq(t, kDeliverySeqBias + delivery_seq_++, std::move(cb));
}

EventId Engine::schedule_with_seq(SimTime t, std::uint64_t seq, Callback cb) {
  CNI_CHECK_MSG(t >= now_, "cannot schedule an event in the simulated past");
  if (heap_t_.empty()) {
    heap_t_.resize(kPad);
    heap_seq_.resize(kPad);
    heap_slot_.resize(kPad);
  }
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    CNI_CHECK_MSG(slots_.size() < kNpos, "event slot table overflow");
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    pos_.push_back(kNpos);
  }
  Slot& sl = slots_[s];
  sl.cb = std::move(cb);
  heap_t_.push_back(t);
  heap_seq_.push_back(seq);
  heap_slot_.push_back(s);
  sift_up(static_cast<std::uint32_t>(heap_t_.size() - 1));  // physical index
  return make_id(s, sl.gen);
}

bool Engine::cancel(EventId id) {
  const auto s = static_cast<std::uint32_t>(id >> 32);
  if (s >= slots_.size()) return false;
  Slot& sl = slots_[s];
  if (sl.gen != static_cast<std::uint32_t>(id) || pos_[s] == kNpos) return false;
  const std::uint32_t pos = pos_[s];
  release_slot(s);
  remove_at(pos);
  ++cancelled_;
  return true;
}

void Engine::release_slot(std::uint32_t s) {
  Slot& sl = slots_[s];
  sl.cb.reset();
  pos_[s] = kNpos;
  ++sl.gen;
  free_slots_.push_back(s);
}

void Engine::remove_at(std::uint32_t i) {
  const auto last = static_cast<std::uint32_t>(heap_t_.size() - 1);
  if (i != last) {
    heap_t_[i] = heap_t_[last];
    heap_seq_[i] = heap_seq_[last];
    heap_slot_[i] = heap_slot_[last];
    pos_[heap_slot_[i]] = i;
    heap_t_.pop_back();
    heap_seq_.pop_back();
    heap_slot_.pop_back();
    if (!sift_down(i)) sift_up(i);
  } else {
    heap_t_.pop_back();
    heap_seq_.pop_back();
    heap_slot_.pop_back();
  }
}

void Engine::sift_up(std::uint32_t i) {
  const SimTime t = heap_t_[i];
  const std::uint64_t seq = heap_seq_[i];
  const std::uint32_t slot = heap_slot_[i];
  while (i > kRoot) {
    const std::uint32_t p = i / kFanout + 6;
    if (heap_t_[p] < t || (heap_t_[p] == t && heap_seq_[p] < seq)) break;
    heap_t_[i] = heap_t_[p];
    heap_seq_[i] = heap_seq_[p];
    heap_slot_[i] = heap_slot_[p];
    pos_[heap_slot_[i]] = i;
    i = p;
  }
  heap_t_[i] = t;
  heap_seq_[i] = seq;
  heap_slot_[i] = slot;
  pos_[slot] = i;
}

bool Engine::sift_down(std::uint32_t i) {
  const auto size = static_cast<std::uint32_t>(heap_t_.size());
  const SimTime t = heap_t_[i];
  const std::uint64_t seq = heap_seq_[i];
  const std::uint32_t slot = heap_slot_[i];
  const std::uint32_t start = i;
  for (;;) {
    const std::uint32_t first = kFanout * i - 48;
    if (first >= size) break;
    // Min of the up-to-kFanout children: a scan over the dense time array.
    // Which child wins is unpredictable, so the scan selects by conditional
    // moves on one key compare per child instead of branching.
    std::uint32_t best = first;
    HeapKey best_key = make_key(heap_t_[first], heap_seq_[first]);
    const std::uint32_t end = std::min(first + kFanout, size);
    for (std::uint32_t c = first + 1; c < end; ++c) {
      const HeapKey k = make_key(heap_t_[c], heap_seq_[c]);
      const bool less = k < best_key;
      best = less ? c : best;
      best_key = less ? k : best_key;
    }
    if (make_key(t, seq) < best_key) break;
    heap_t_[i] = heap_t_[best];
    heap_seq_[i] = heap_seq_[best];
    heap_slot_[i] = heap_slot_[best];
    pos_[heap_slot_[i]] = i;
    i = best;
  }
  heap_t_[i] = t;
  heap_seq_[i] = seq;
  heap_slot_[i] = slot;
  pos_[slot] = i;
  return i != start;
}

bool Engine::step() {
  if (empty()) return false;
  const SimTime t = heap_t_[kRoot];
  const std::uint32_t slot = heap_slot_[kRoot];
  CNI_DCHECK(t >= now_);
  now_ = t;
  // Free the slot and restore the heap *before* invoking, so the callback
  // may freely schedule and cancel events.
  Callback cb = std::move(slots_[slot].cb);
  release_slot(slot);
  remove_at(kRoot);
  ++executed_;
  // Pull the next event's slot toward the cache while the callback runs.
  if (!empty()) __builtin_prefetch(&slots_[heap_slot_[kRoot]]);
  cb();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime deadline) {
  while (!empty() && heap_t_[kRoot] <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Engine::run_before(SimTime bound) {
  while (!empty() && heap_t_[kRoot] < bound) {
    step();
  }
}

}  // namespace cni::sim
