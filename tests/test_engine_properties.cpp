// Properties of the event engine's determinism contract, checked against a
// brute-force reference model: events fire in (time, insertion-sequence)
// order, and the firing order is a pure function of the schedule history —
// never of heap layout, slot reuse, or sift order.
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
// Drives the engine with random schedules, then compares the observed fire
// order with the obvious specification: stable-sort the (time,
// insertion-index) pairs by time.

class RandomHistorySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomHistorySweep, FireOrderMatchesReferenceModel) {
  util::SplitMix64 rng(GetParam());
  Engine e;
  struct Planned {
    SimTime t;
    int tag;
  };
  std::vector<Planned> plan;
  std::vector<int> fired;
  for (int tag = 0; tag < 500; ++tag) {
    const SimTime t = rng.next_below(64);  // dense: many same-instant ties
    e.schedule_at(t, [&fired, tag] { fired.push_back(tag); });
    plan.push_back({t, tag});
  }
  EXPECT_EQ(e.pending(), plan.size());
  e.run();
  EXPECT_TRUE(e.empty());

  std::vector<Planned> expect = plan;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Planned& a, const Planned& b) { return a.t < b.t; });
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(fired[i], expect[i].tag);
}

TEST_P(RandomHistorySweep, TwoRunsAreBitIdentical) {
  // The whole simulator's reproducibility reduces to this: the same history
  // yields the same trace, run to run, including when fired events schedule
  // more at their own instant.
  const auto trace = [](std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Engine e;
    std::vector<std::pair<SimTime, int>> out;
    for (int tag = 0; tag < 300; ++tag) {
      e.schedule_at(rng.next_below(32), [&e, &out, tag] {
        out.emplace_back(e.now(), tag);
        if (tag % 3 == 0) {
          e.schedule_after(0, [&e, &out, tag] { out.emplace_back(e.now(), -tag); });
        }
      });
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
// every fired event schedules others. A reference set ordered by
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
    EXPECT_EQ(fired_, keys_.size());
    EXPECT_EQ(keys_.size(), kTotal);
  }

 private:
  struct Fire {
    MixedScheduleModel* m;
    std::size_t tag;
    void operator()() const { m->fire(tag); }
  };

  void schedule(SimTime t) {
    const std::size_t tag = keys_.size();
    std::uint64_t seq = 0;
    if (rng_.next_below(2) == 0) {
      seq = locals_++;
      engine_.schedule_at(t, Fire{this, tag});
    } else {
      seq = (std::uint64_t{1} << 63) + deliveries_++;
      engine_.schedule_delivery(t, Fire{this, tag});
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
    // included).
    for (auto k = rng_.next_below(4); k > 0 && keys_.size() < kTotal; --k) {
      schedule(engine_.now() + rng_.next_below(4));
    }
  }

  Engine engine_;
  util::SplitMix64 rng_{0x5EEDu};
  std::vector<std::tuple<SimTime, std::uint64_t, std::size_t>> keys_;  // by tag
  std::set<std::tuple<SimTime, std::uint64_t, std::size_t>> ref_;      // pending
  std::uint64_t locals_ = 0;
  std::uint64_t deliveries_ = 0;
  std::size_t fired_ = 0;
  std::size_t out_of_order_ = 0;
};

TEST(EngineProperties, DenseMixedSchedulesPopInTimeSeqOrder) {
  MixedScheduleModel model;
  model.run();
}

}  // namespace
}  // namespace cni::sim
