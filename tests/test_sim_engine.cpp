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

TEST(Engine, CancelSuppressesEvent) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancellingLastPendingEventEmptiesQueue) {
  // Regression: with tombstone-based cancellation, empty() stayed false and
  // run() had to pop the dead entry. Indexed cancellation removes it at once.
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending(), 0u);
  e.run();  // returns immediately: nothing is pending
  EXPECT_EQ(e.events_executed(), 0u);
  EXPECT_EQ(e.now(), 0u);  // time never advanced
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancelReportsWhetherAnEventWasRemoved) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double cancel: harmless no-op
  bool fired = false;
  const EventId fired_id = e.schedule_at(20, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(fired_id));  // already fired
  EXPECT_FALSE(e.cancel(0xdeadbeefdeadbeefULL));  // never existed
}

TEST(Engine, StaleIdDoesNotCancelASlotReusingEvent) {
  // The slot of a fired event is recycled for the next schedule; the stale
  // id must not reach the new occupant (generations keep them distinct).
  Engine e;
  const EventId old_id = e.schedule_at(1, [] {});
  e.run();
  bool fired = false;
  e.schedule_at(2, [&] { fired = true; });  // reuses the freed slot
  EXPECT_FALSE(e.cancel(old_id));
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelInTheMiddlePreservesFiringOrder) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(e.schedule_at(static_cast<SimTime>(i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 16; i += 2) e.cancel(ids[static_cast<std::size_t>(i)]);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
  EXPECT_EQ(e.events_cancelled(), 8u);
  EXPECT_EQ(e.events_executed(), 8u);
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

TEST(InlineFn, DestroysHeapCallableOnCancelToo) {
  auto counter = std::make_shared<int>(0);
  Engine e;
  std::shared_ptr<int> keep = counter;
  const EventId id = e.schedule_at(1, [keep] { ++*keep; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(counter.use_count(), 2);  // `keep` + our handle; engine's copy gone
  e.run();
  EXPECT_EQ(*counter, 0);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(30, [&] { ++fired; });
  e.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 20u);
  e.run();
  EXPECT_EQ(fired, 2);
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
