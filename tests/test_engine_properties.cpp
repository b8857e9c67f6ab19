// Properties of the event engine's determinism contract, checked against a
// brute-force reference model: events fire in (time, insertion-sequence)
// order, cancellation removes exactly the targeted event, and the firing
// order is a pure function of the schedule/cancel history — never of heap
// layout, slot reuse, or sift order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace cni::sim {
namespace {

// ---- Property: fire order matches a stable-sorted reference model ----
//
// Drives the engine with a random mix of schedules and cancellations, then
// compares the observed fire order with the obvious specification: keep every
// uncancelled (time, insertion-index) pair and stable-sort by time.

class RandomHistorySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomHistorySweep, FireOrderMatchesReferenceModel) {
  util::SplitMix64 rng(GetParam());
  Engine e;
  struct Planned {
    SimTime t;
    int tag;
    bool cancelled;
  };
  std::vector<Planned> plan;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int tag = 0; tag < 500; ++tag) {
    const SimTime t = rng.next_below(64);  // dense: many same-instant ties
    ids.push_back(e.schedule_at(t, [&fired, tag] { fired.push_back(tag); }));
    plan.push_back({t, tag, false});
    if (rng.next_below(4) == 0) {
      // Cancel a random earlier (possibly already-cancelled) event; the
      // engine must report exactly whether it removed something.
      const auto victim = static_cast<std::size_t>(rng.next_below(ids.size()));
      const bool removed = e.cancel(ids[victim]);
      EXPECT_EQ(removed, !plan[victim].cancelled);
      plan[victim].cancelled = true;
    }
  }
  const std::size_t live =
      static_cast<std::size_t>(std::count_if(plan.begin(), plan.end(),
                                             [](const Planned& p) { return !p.cancelled; }));
  EXPECT_EQ(e.pending(), live);
  e.run();
  EXPECT_TRUE(e.empty());

  std::vector<Planned> expect;
  for (const Planned& p : plan) {
    if (!p.cancelled) expect.push_back(p);
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Planned& a, const Planned& b) { return a.t < b.t; });
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(fired[i], expect[i].tag);
}

TEST_P(RandomHistorySweep, TwoRunsAreBitIdentical) {
  // The whole simulator's reproducibility reduces to this: the same history
  // yields the same trace, run to run, including under heavy cancellation.
  const auto trace = [](std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Engine e;
    std::vector<EventId> ids;
    std::vector<std::pair<SimTime, int>> out;
    for (int tag = 0; tag < 300; ++tag) {
      ids.push_back(e.schedule_at(rng.next_below(32), [&e, &out, tag] {
        out.emplace_back(e.now(), tag);
      }));
      if (rng.next_below(3) == 0) e.cancel(ids[rng.next_below(ids.size())]);
    }
    e.run();
    return out;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHistorySweep,
                         ::testing::Values(1u, 2u, 3u, 0x9e3779b9u, 0xfeedfaceu));

// ---- Property: same-instant FIFO holds at scale, interleaved with pops ----

TEST(EngineProperties, SameInstantFifoSurvivesInterleavedExecution) {
  // Events firing at t==10 schedule more events for t==10; every batch must
  // still drain in insertion order (the sequence number orders them, and it
  // keeps counting across fires).
  Engine e;
  std::vector<int> order;
  int next = 0;
  struct Spawn {
    Engine* e;
    std::vector<int>* order;
    int* next;
    int tag;
    void operator()() const {
      order->push_back(tag);
      if (*next < 64) e->schedule_at(10, Spawn{e, order, next, (*next)++});
    }
  };
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(10, Spawn{&e, &order, &next, next});
    ++next;
  }
  e.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---- Property: pops follow (time, seq) at heap scale, local and delivery ----
//
// 2,400 events over 32 instants, schedule_at and schedule_delivery mixed, and
// every fired event schedules and cancels others. A reference set ordered by
// (time, seq), with seq assigned as the engine documents it (locals count up
// from 0, deliveries from 2^63), must hold the engine's event at its front
// on every pop.

class MixedScheduleModel {
 public:
  static constexpr std::size_t kInitial = 2400;
  static constexpr std::size_t kTotal = 8000;

  MixedScheduleModel() {
    for (std::size_t i = 0; i < kInitial; ++i) schedule(rng_.next_below(32));
  }

  void run() {
    EXPECT_GE(engine_.pending(), kInitial);
    engine_.run();
    EXPECT_TRUE(engine_.empty());
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(out_of_order_, 0u);
    EXPECT_EQ(fired_ + cancelled_, ids_.size());
    EXPECT_GT(cancelled_, 0u);
    EXPECT_EQ(ids_.size(), kTotal);
  }

 private:
  struct Fire {
    MixedScheduleModel* m;
    std::size_t tag;
    void operator()() const { m->fire(tag); }
  };

  void schedule(SimTime t) {
    const std::size_t tag = ids_.size();
    std::uint64_t seq = 0;
    if (rng_.next_below(2) == 0) {
      seq = locals_++;
      ids_.push_back(engine_.schedule_at(t, Fire{this, tag}));
    } else {
      seq = (std::uint64_t{1} << 63) + deliveries_++;
      ids_.push_back(engine_.schedule_delivery(t, Fire{this, tag}));
    }
    keys_.emplace_back(t, seq, tag);
    ref_.insert(keys_.back());
  }

  void fire(std::size_t tag) {
    ++fired_;
    if (ref_.empty() || *ref_.begin() != keys_[tag] || std::get<0>(keys_[tag]) != engine_.now()) {
      ++out_of_order_;
    }
    ref_.erase(keys_[tag]);
    // Spawn up to three events at now .. now + 3 (same-instant ties
    // included), then maybe cancel a random earlier one, pending or not.
    for (auto k = rng_.next_below(4); k > 0 && ids_.size() < kTotal; --k) {
      schedule(engine_.now() + rng_.next_below(4));
    }
    if (rng_.next_below(3) == 0) {
      const auto victim = static_cast<std::size_t>(rng_.next_below(ids_.size()));
      const bool pending = ref_.erase(keys_[victim]) == 1;
      EXPECT_EQ(engine_.cancel(ids_[victim]), pending);
      if (pending) ++cancelled_;
    }
  }

  Engine engine_;
  util::SplitMix64 rng_{0x5EEDu};
  std::vector<EventId> ids_;
  std::vector<std::tuple<SimTime, std::uint64_t, std::size_t>> keys_;  // by tag
  std::set<std::tuple<SimTime, std::uint64_t, std::size_t>> ref_;      // pending
  std::uint64_t locals_ = 0;
  std::uint64_t deliveries_ = 0;
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t out_of_order_ = 0;
};

TEST(EngineProperties, DenseMixedSchedulesPopInTimeSeqOrder) {
  MixedScheduleModel model;
  model.run();
}

}  // namespace
}  // namespace cni::sim
