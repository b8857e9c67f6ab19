#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "resident_bytes.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "util/sanitizers.hpp"

namespace cni::sim {
namespace {

using cni::test_support::resident_bytes;

/// Maps 64 KB of writable memory directly below the run of mappings that
/// contains `addr`, so that a stack running off its low end lands in
/// ordinary writable memory unless a guard page stops it first.
void map_writable_below(std::uintptr_t addr) {
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> vmas;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    char dash = 0;
    std::istringstream(line) >> std::hex >> lo >> dash >> hi;
    vmas.emplace_back(lo, hi);
  }
  std::uintptr_t low = addr;
  for (bool moved = true; moved;) {  // walk down through adjacent mappings
    moved = false;
    for (const auto& [lo, hi] : vmas) {
      if (lo < low && low <= hi) {
        low = lo;
        moved = true;
      }
    }
  }
  constexpr std::size_t kBytes = 64 * 1024;
  (void)mmap(reinterpret_cast<void*>(low - kBytes), kBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
}

/// Recurses until the frame address lies `depth` bytes below `top`. Each
/// frame is a few hundred bytes and writes its own slot, so the descent
/// touches every stack page on the way down; the frame address (not a local's)
/// tracks the real stack even where a sanitizer moves arrays off it.
[[gnu::noinline]] std::uintptr_t descend(std::uintptr_t top, std::uintptr_t depth) {
  volatile unsigned char frame[256];
  frame[0] = 1;
  const auto here = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  if (top - here >= depth) return frame[0];
  return descend(top, depth) + frame[0];  // not a tail call: the frame stays
}

TEST(SimThread, DelayAdvancesSimulatedTime) {
  Engine e;
  SimTime seen = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.delay(100);
    seen = e.now();
    self.delay(50);
  });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(e.now(), 150u);
}

TEST(SimThread, InterleavesWithEvents) {
  Engine e;
  std::vector<int> order;
  SimThread t(e, "t", [&](SimThread& self) {
    order.push_back(1);
    self.delay(100);
    order.push_back(3);
  });
  e.schedule_at(50, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimThread, BlockAndWake) {
  Engine e;
  SimTime woke_at = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.block();
    woke_at = e.now();
  });
  e.schedule_at(500, [&] { t.wake(); });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(woke_at, 500u);
}

TEST(SimThread, DoubleWakeSameInstantIsIdempotent) {
  Engine e;
  int resumes = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.block();
    ++resumes;
    self.delay(10);  // would explode if a second resume were pending
  });
  e.schedule_at(5, [&] {
    t.wake();
    t.wake();
  });
  e.run();
  EXPECT_EQ(resumes, 1);
}

TEST(SimThread, BodyExceptionPropagatesToRun) {
  Engine e;
  SimThread t(e, "t", [&](SimThread&) { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(SimThread, ManyThreadsDeterministicInterleaving) {
  std::vector<SimTime> first_run;
  for (int rep = 0; rep < 2; ++rep) {
    Engine e;
    std::vector<SimTime> log;
    std::vector<std::unique_ptr<SimThread>> ts;
    for (int i = 0; i < 16; ++i) {
      ts.push_back(std::make_unique<SimThread>(e, "t", [&log, i](SimThread& self) {
        for (int k = 0; k < 5; ++k) {
          self.delay(static_cast<SimDuration>(10 + i));
          log.push_back(self.engine().now());
        }
      }));
    }
    e.run();
    if (rep == 0) {
      first_run = log;
    } else {
      EXPECT_EQ(log, first_run);
    }
  }
}

TEST(SimThreadDeathTest, StackOverflowHitsTheGuardPage) {
  // A body that runs a few KB past the end of its stack must fault on the
  // guard page, not write over the writable memory placed below the stack.
  EXPECT_DEATH(
      {
        Engine e;
        SimThread t(e, "deep", [](SimThread&) {
          const auto top = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
          map_writable_below(top);
          (void)descend(top, SimThread::kStackBytes + 16 * 1024);
        });
        e.run();
      },
      "");
}

TEST(SimThread, ManyFibersCommitOnlyTheStackTheyTouch) {
  // Sanitizer runtimes shadow every touched stack byte and keep fake frames
  // of their own, so a resident-set bound says nothing under them.
  if (CNI_MEMORY_SANITIZER) GTEST_SKIP() << "sanitizer shadow memory swamps the bound";
  // 4096 fibers reserve 2 GB of stack; each touches only its top few KB.
  constexpr int kFibers = 4096;
  const std::uint64_t before = resident_bytes();
  Engine e;
  std::vector<std::unique_ptr<SimThread>> ts;
  ts.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    ts.push_back(
        std::make_unique<SimThread>(e, "t", [](SimThread& self) { self.delay(1); }));
  }
  e.run();
  const std::uint64_t after = resident_bytes();
  const std::uint64_t grown = after > before ? after - before : 0;
  for (const auto& t : ts) EXPECT_TRUE(t->finished());
  EXPECT_LT(grown, std::uint64_t{64} << 20) << "resident set grew " << grown << " bytes";
}

TEST(LocalClock, AccumulatesAndSyncs) {
  Engine e;
  LocalClock lc(Clock{1'000'000'000});  // 1 GHz: 1 cycle = 1 ns
  SimThread t(e, "t", [&](SimThread& self) {
    lc.charge_cycles(100);
    lc.charge_cycles(50);
    EXPECT_EQ(lc.pending_cycles(), 150u);
    lc.sync(self);
    EXPECT_EQ(lc.pending_cycles(), 0u);
  });
  e.run();
  EXPECT_EQ(e.now(), 150u * kNanosecond);
}

TEST(WaitQueue, PredicateLoop) {
  Engine e;
  bool flag = false;
  WaitQueue wq;
  SimTime resumed = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    wq.wait(self, [&] { return flag; });
    resumed = e.now();
  });
  // A notify without the predicate being true re-parks the waiter.
  e.schedule_at(10, [&] { wq.notify_all(); });
  e.schedule_at(20, [&] {
    flag = true;
    wq.notify_all();
  });
  e.run();
  EXPECT_EQ(resumed, 20u);
}

TEST(SimChannel, BlockingReceive) {
  Engine e;
  SimChannel<int> ch;
  int got = 0;
  SimTime when = 0;
  SimThread t(e, "rx", [&](SimThread& self) {
    got = ch.receive(self);
    when = e.now();
  });
  e.schedule_at(77, [&] { ch.send(42); });
  e.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(when, 77u);
}

TEST(SimChannel, FifoOrder) {
  Engine e;
  SimChannel<int> ch;
  std::vector<int> got;
  SimThread t(e, "rx", [&](SimThread& self) {
    for (int i = 0; i < 3; ++i) got.push_back(ch.receive(self));
  });
  e.schedule_at(1, [&] {
    ch.send(1);
    ch.send(2);
    ch.send(3);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace cni::sim
