#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cni::sim {
namespace {

TEST(Clock, PeriodsFromTable1) {
  EXPECT_EQ(Clock(166'000'000).period(), 6024u);   // 166 MHz CPU
  EXPECT_EQ(Clock(25'000'000).period(), 40000u);   // 25 MHz bus
  EXPECT_EQ(Clock(33'000'000).period(), 30303u);   // 33 MHz NIC
}

TEST(Clock, CycleConversionsRoundTrip) {
  const Clock c(166'000'000);
  EXPECT_EQ(c.cycles(1000), 6'024'000u);
  EXPECT_EQ(c.to_cycles(c.cycles(1000)), 1000u);
  EXPECT_EQ(c.to_cycles_ceil(c.cycles(1000) + 1), 1001u);
}

TEST(Time, TransmissionTime) {
  // One 53-byte ATM cell at 622.08 Mb/s is ~681.6 ns.
  const SimDuration d = transmission_time(53 * 8, util::kSts12BitsPerSec);
  EXPECT_NEAR(static_cast<double>(d), 681.6 * kNanosecond, 1.0 * kNanosecond);
  EXPECT_EQ(transmission_time(0, util::kSts12BitsPerSec), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, SameInstantIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1, [&] {
    ++fired;
    e.schedule_after(1, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 2u);
}

TEST(InlineFn, RunsHeapFallbackCallablesAndDestroysThem) {
  // A capture that is not trivially copyable takes the heap path; the
  // callable must still run and its captured state must be destroyed.
  auto counter = std::make_shared<int>(0);
  {
    Engine e;
    std::shared_ptr<int> keep = counter;
    e.schedule_at(1, [keep] { ++*keep; });
    EXPECT_EQ(counter.use_count(), 3);  // counter + keep + the engine's copy
    e.run();
    EXPECT_EQ(*counter, 1);
    EXPECT_EQ(counter.use_count(), 2);  // fired callbacks are destroyed
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFn, DestroysPendingHeapCallableWithTheEngine) {
  // A callback that never fires is destroyed with the engine's slot table.
  auto counter = std::make_shared<int>(0);
  {
    Engine e;
    std::shared_ptr<int> keep = counter;
    e.schedule_at(1, [keep] { ++*keep; });
    EXPECT_EQ(counter.use_count(), 3);  // counter + keep + the engine's copy
  }
  EXPECT_EQ(*counter, 0);
  EXPECT_EQ(counter.use_count(), 1);
}

// ---------------------------------------------------------------------------
// The run loop's primitives (Cluster::run drives every simulation through
// next_time and run_before; DESIGN.md §12)

TEST(Engine, RunBeforeFiresOnlyEventsBelowTheBound) {
  Engine e;
  std::vector<SimTime> fired;
  for (const SimTime t : {SimTime{10}, SimTime{20}, SimTime{30}, SimTime{40}}) {
    e.schedule_at(t, [&e, &fired] { fired.push_back(e.now()); });
  }
  e.run_before(30);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(e.pending(), 2u);  // the event at the bound and the later one
  EXPECT_EQ(e.next_time(), 30u);
  e.run_before(30);  // nothing below the bound is left: no event fires
  EXPECT_EQ(fired.size(), 2u);
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Engine, RunBeforeLeavesNowAtTheLastFiredEvent) {
  Engine e;
  e.schedule_at(10, [] {});
  e.schedule_at(50, [] {});
  e.run_before(40);
  EXPECT_EQ(e.now(), 10u);  // not advanced to the bound
  Engine idle;
  idle.run_before(100);
  EXPECT_EQ(idle.now(), 0u);
}

TEST(Engine, SchedulingAtTheBoundAfterRunBeforeIsNotInThePast) {
  // The run loop routes the fabric's transfers after a window [E, E') and
  // schedules their deliveries at t >= E'. now() stayed below E', so neither
  // a local event nor a delivery at E' trips the past check.
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(30, [&] { order.push_back(2); });
  e.run_before(30);
  e.schedule_delivery(30, [&] { order.push_back(4); });
  e.schedule_at(30, [&] { order.push_back(3); });
  e.run();
  // At one instant, local events fire before deliveries.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, NextTimeIsTheEarliestPendingEvent) {
  Engine e;
  EXPECT_EQ(e.next_time(), kNever);  // nothing pending
  int fired = 0;
  e.schedule_at(50, [&fired] { ++fired; });
  e.schedule_at(20, [&e, &fired] {
    ++fired;
    // A callback that schedules at its own instant: the new event is the
    // earliest pending one while the callback still runs.
    e.schedule_after(0, [&fired] { ++fired; });
    EXPECT_EQ(e.next_time(), 20u);
  });
  EXPECT_EQ(e.next_time(), 20u);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(e.next_time(), 20u);  // the event the callback added
  EXPECT_TRUE(e.step());
  EXPECT_EQ(e.now(), 20u);
  EXPECT_EQ(e.next_time(), 50u);
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.next_time(), kNever);
  EXPECT_FALSE(e.step());
}

TEST(Engine, SchedulingInPastAborts) {
  Engine e;
  e.schedule_at(10, [&] {
    EXPECT_DEATH(e.schedule_at(5, [] {}), "past");
  });
  e.run();
}

// ---------------------------------------------------------------------------
// Window bound of the cluster run loop (DESIGN.md §12)

TEST(EpochMath, SatAddSaturatesAtNever) {
  EXPECT_EQ(sat_add(10, 5), 15u);
  EXPECT_EQ(sat_add(kNever, 1), kNever);
  EXPECT_EQ(sat_add(kNever - 3, 10), kNever);
  EXPECT_EQ(sat_add(kNever - 3, 3), kNever);
}

TEST(EpochMath, NextEpochEndTakesTheTighterBound) {
  EpochParams p;
  p.lookahead = 800;
  p.drain_horizon = 150;
  p.pending_bound = 650;
  // No pending transfers: the window is t_min + L.
  EXPECT_EQ(next_epoch_end(1000, kNever, p), 1800u);
  // A pending head close below t_min tightens the window: its delivery at
  // head + pending_bound must stay outside the window.
  EXPECT_EQ(next_epoch_end(1000, 900, p), 1550u);
  // A pending head far in the future is not the binding constraint.
  EXPECT_EQ(next_epoch_end(1000, 5000, p), 1800u);
  // An idle engine with a pending transfer still makes progress.
  EXPECT_EQ(next_epoch_end(kNever, 900, p), 1550u);
  // Nothing anywhere: the run loop is about to stop.
  EXPECT_EQ(next_epoch_end(kNever, kNever, p), kNever);
}

TEST(ServiceQueue, BackToBackJobsQueue) {
  ServiceQueue q;
  EXPECT_EQ(q.occupy(100, 50), 150u);
  // Requested while busy: starts when the queue drains.
  EXPECT_EQ(q.occupy(120, 50), 200u);
  // Requested after idle: starts immediately.
  EXPECT_EQ(q.occupy(300, 10), 310u);
  EXPECT_EQ(q.jobs(), 3u);
  EXPECT_EQ(q.total_busy(), 110u);
}

TEST(ServiceQueue, NoDoubleCountingOfWait) {
  // Regression: a queued job must not extend the busy horizon by its wait
  // time (that bug made closed-loop traffic diverge quadratically).
  ServiceQueue q;
  q.occupy(0, 100);
  for (int i = 1; i <= 10; ++i) {
    const SimTime done = q.occupy(0, 100);
    EXPECT_EQ(done, static_cast<SimTime>(100 * (i + 1)));
  }
}

TEST(ServiceQueue, IdleGapsDoNotAccrueBusyTime) {
  ServiceQueue q;
  q.occupy(0, 10);
  q.occupy(1000, 10);  // 980 ticks of idle between the jobs
  q.occupy(5000, 10);
  EXPECT_EQ(q.total_busy(), 30u);  // only service time, never idle time
  EXPECT_EQ(q.busy_until(), 5010u);
}

TEST(ServiceQueue, TotalBusyIsTheSumOfDurationsUnderRandomLoad) {
  // Invariants under an arbitrary arrival pattern: total_busy is exactly the
  // sum of requested durations, completion times never go backwards, and a
  // job never finishes before now + its own duration.
  util::SplitMix64 rng(7);
  ServiceQueue q;
  SimDuration sum = 0;
  SimTime now = 0;
  SimTime prev_done = 0;
  for (int i = 0; i < 1000; ++i) {
    now += rng.next_below(200);  // sometimes 0: back-to-back arrivals
    const SimDuration d = 1 + rng.next_below(50);
    const SimTime done = q.occupy(now, d);
    sum += d;
    EXPECT_GE(done, now + d);
    EXPECT_GE(done, prev_done);
    EXPECT_EQ(done, q.busy_until());
    prev_done = done;
  }
  EXPECT_EQ(q.total_busy(), sum);
  EXPECT_EQ(q.jobs(), 1000u);
}

}  // namespace
}  // namespace cni::sim
