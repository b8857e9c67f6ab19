// Lazy-release-consistency protocol behaviour across nodes.
//
// These scenarios drive the full stack (DSM handlers on the boards, ATM
// fabric, caches) with hand-written node programs, checking both the
// memory-model semantics and the protocol bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "resident_bytes.hpp"
#include "util/sanitizers.hpp"

namespace cni::dsm {
namespace {

using apps::make_params;
using cluster::BoardKind;

struct Fixture {
  explicit Fixture(std::uint32_t procs, BoardKind board = BoardKind::kCni)
      : cl(make_params(board, procs)), sys(cl) {}
  cluster::Cluster cl;
  DsmSystem sys;

  void run(const std::function<void(DsmContext&)>& body) {
    cl.run([&](std::size_t i, sim::SimThread& t) {
      DsmContext ctx(sys, i, t);
      body(ctx);
    });
  }
};

TEST(DsmProtocol, BarrierPropagatesWrites) {
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(8, "x");
  double seen = 0;
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) ctx.write<double>(x, 3.25);
    ctx.barrier();
    if (ctx.self() == 1) seen = ctx.read<double>(x);
  });
  EXPECT_DOUBLE_EQ(seen, 3.25);
  EXPECT_GE(f.cl.stats().total().write_notices_received, 1u);
  EXPECT_GE(f.cl.stats().node(1).read_faults, 1u);
}

TEST(DsmProtocol, LazinessReadsStayStaleWithoutAcquire) {
  // Release consistency: a write is only guaranteed visible after the reader
  // acquires; with no synchronisation the reader keeps its old (zero) copy.
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(8, "x");
  double seen = -1;
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) {
      (void)ctx.read<double>(x);  // validate a local copy first (home is node 0)
      ctx.thread().delay(5 * sim::kMillisecond);
      // no release/barrier in sight of node 1's read
    } else {
      seen = ctx.read<double>(x);  // cold fetch from home: zeros
      ctx.thread().delay(1 * sim::kMillisecond);
      EXPECT_DOUBLE_EQ(ctx.read<double>(x), seen);  // still the stale copy
    }
  });
  EXPECT_DOUBLE_EQ(seen, 0.0);
}

TEST(DsmProtocol, LockChainTransfersLatestValue) {
  // The regression behind the bag-of-tasks bug: strictly alternating
  // lock-protected increments must never lose an update.
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(8, "x");
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) ctx.write<std::uint64_t>(x, 0);
    ctx.barrier();
    for (int i = 0; i < 25; ++i) {
      ctx.acquire(5);
      ctx.write<std::uint64_t>(x, ctx.read<std::uint64_t>(x) + 1);
      ctx.release(5);
      ctx.compute(1000);
    }
    ctx.barrier();
    EXPECT_EQ(ctx.read<std::uint64_t>(x), 50u);
  });
}

TEST(DsmProtocol, ConcurrentWriteSharingMergesDiffs) {
  // Four nodes write disjoint quarters of ONE page between barriers; the
  // diff merge must reassemble the page on every node.
  Fixture f(4);
  const mem::VAddr base = f.sys.alloc(4096, "page");
  f.run([&](DsmContext& ctx) {
    const std::uint32_t me = ctx.self();
    for (std::uint32_t round = 1; round <= 3; ++round) {
      for (std::uint32_t k = 0; k < 16; ++k) {
        ctx.write<std::uint64_t>(base + (me * 16 + k) * 8, me * 1000 + round * 100 + k);
      }
      ctx.barrier();
      for (std::uint32_t w = 0; w < 4; ++w) {
        for (std::uint32_t k = 0; k < 16; ++k) {
          EXPECT_EQ(ctx.read<std::uint64_t>(base + (w * 16 + k) * 8),
                    w * 1000 + round * 100 + k)
              << "node " << me << " round " << round;
        }
      }
      ctx.barrier();
    }
  });
  EXPECT_GT(f.cl.stats().total().diffs_applied, 0u);
}

TEST(DsmProtocol, TransitiveCausalityThroughLockChains) {
  // n0 writes x, releases L0; n1 acquires L0 (sees x), writes y, releases
  // L1; n2 acquires L1 and must see BOTH x and y (interval forwarding).
  Fixture f(3);
  const mem::VAddr x = f.sys.alloc(8, "x");
  const mem::VAddr y = f.sys.alloc(8, "y");
  f.run([&](DsmContext& ctx) {
    switch (ctx.self()) {
      case 0:
        ctx.acquire(10);
        ctx.write<std::uint64_t>(x, 111);
        ctx.release(10);
        break;
      case 1:
        ctx.thread().delay(2 * sim::kMillisecond);
        ctx.acquire(10);
        EXPECT_EQ(ctx.read<std::uint64_t>(x), 111u);
        ctx.release(10);
        ctx.acquire(11);
        ctx.write<std::uint64_t>(y, 222);
        ctx.release(11);
        break;
      case 2:
        ctx.thread().delay(6 * sim::kMillisecond);
        ctx.acquire(11);
        EXPECT_EQ(ctx.read<std::uint64_t>(x), 111u);  // transitive
        EXPECT_EQ(ctx.read<std::uint64_t>(y), 222u);
        ctx.release(11);
        break;
      default: break;
    }
  });
}

TEST(DsmProtocol, LocksAreMutuallyExclusive) {
  Fixture f(4);
  const mem::VAddr x = f.sys.alloc(8, "x");
  bool inside = false;  // native flag: overlap would be seen instantly
  int entries = 0;
  f.run([&](DsmContext& ctx) {
    (void)x;
    for (int i = 0; i < 10; ++i) {
      ctx.acquire(3);
      EXPECT_FALSE(inside);
      inside = true;
      ++entries;
      ctx.compute(5000);
      ctx.thread().delay(10 * sim::kMicrosecond);
      inside = false;
      ctx.release(3);
      ctx.compute(2000);
    }
  });
  EXPECT_EQ(entries, 40);
}

TEST(DsmProtocol, BarrierHoldsEveryoneBack) {
  Fixture f(3);
  // Per-node slots, reduced after the run.
  std::vector<sim::SimTime> arrivals(3);
  std::vector<sim::SimTime> departures(3);
  f.run([&](DsmContext& ctx) {
    ctx.compute(ctx.self() * 1'000'000);  // staggered arrivals
    ctx.thread().delay(1);                // flush local clock
    arrivals[ctx.self()] = ctx.thread().engine().now();
    ctx.barrier();
    departures[ctx.self()] = ctx.thread().engine().now();
  });
  const sim::SimTime slowest_arrival = *std::max_element(arrivals.begin(), arrivals.end());
  for (const sim::SimTime d : departures) EXPECT_GE(d, slowest_arrival);
}

TEST(DsmProtocol, InvalidationAndModeTransitions) {
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(8, "x");
  const PageId page = f.sys.page_of_va(x);
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) {
      ctx.write<std::uint64_t>(x, 1);
      EXPECT_EQ(ctx.runtime().page_mode(page), PageMode::kReadWrite);
      ctx.barrier();
      // Our interval closed at the barrier: back to read-only.
      EXPECT_EQ(ctx.runtime().page_mode(page), PageMode::kReadOnly);
      ctx.barrier();
    } else {
      ctx.barrier();
      (void)ctx.read<std::uint64_t>(x);
      EXPECT_EQ(ctx.runtime().page_mode(page), PageMode::kReadOnly);
      ctx.barrier();
    }
  });
}

TEST(DsmProtocol, RemoteNoticeInvalidatesReaderCopy) {
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(8, "x");
  const PageId page = f.sys.page_of_va(x);
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) {
      ctx.write<std::uint64_t>(x, 1);
      ctx.barrier();
      ctx.barrier();
      ctx.write<std::uint64_t>(x, 2);
      ctx.barrier();
    } else {
      ctx.barrier();
      EXPECT_EQ(ctx.read<std::uint64_t>(x), 1u);
      ctx.barrier();
      ctx.barrier();
      // The second barrier carried a notice: our copy must be invalid now.
      EXPECT_EQ(ctx.runtime().page_mode(page), PageMode::kInvalid);
      EXPECT_GE(ctx.runtime().pending_notices(page), 1u);
      EXPECT_EQ(ctx.read<std::uint64_t>(x), 2u);
    }
  });
}

TEST(DsmProtocol, NoticeAloneAllocatesNoFrame) {
  // Node i writes page i (homed at node i, so nobody fetches it first);
  // the barrier hands every node a notice for its neighbour's page. The
  // notice must not allocate a frame; the first read does, and returns the
  // writer's bytes.
  constexpr std::uint32_t kProcs = 4;
  Fixture f(kProcs);
  const std::uint64_t page_bytes = f.sys.geometry().size();
  const mem::VAddr base = f.sys.alloc(kProcs * page_bytes, "pages");
  f.run([&](DsmContext& ctx) {
    const std::uint32_t self = ctx.self();
    ctx.write<std::uint64_t>(base + self * page_bytes, 100 + self);
    ctx.barrier();
    const std::uint32_t next = (self + 1) % kProcs;
    const mem::VAddr theirs = base + next * page_bytes;
    const PageId page = f.sys.page_of_va(theirs);
    EXPECT_GE(ctx.runtime().pending_notices(page), 1u);
    EXPECT_FALSE(ctx.runtime().has_frame(page));
    EXPECT_EQ(ctx.read<std::uint64_t>(theirs), 100u + next);
    EXPECT_TRUE(ctx.runtime().has_frame(page));
  });
}

TEST(DsmProtocol, PendingNoticesStayBoundedPerWriter) {
  // Writers 1..W each make K lock-protected writes to their own slot of one
  // page that node 0 never touches, so the barrier hands node 0 K x W
  // notices for it. Node 0 keeps the newest per writer, and its first read
  // still sees every writer's last value.
  constexpr std::uint32_t kWriters = 3;
  constexpr std::uint32_t kWrites = 5;
  Fixture f(kWriters + 1);
  const mem::VAddr base = f.sys.alloc(8 * (kWriters + 1), "slots");
  const PageId page = f.sys.page_of_va(base);
  f.run([&](DsmContext& ctx) {
    const std::uint32_t self = ctx.self();
    if (self != 0) {
      for (std::uint32_t k = 1; k <= kWrites; ++k) {
        ctx.acquire(self);
        ctx.write<std::uint64_t>(base + 8 * self, 100 * self + k);
        ctx.release(self);
      }
    }
    ctx.barrier();
    if (self != 0) return;
    EXPECT_EQ(ctx.runtime().pending_notices(page), kWriters);
    for (std::uint32_t w = 1; w <= kWriters; ++w) {
      EXPECT_EQ(ctx.read<std::uint64_t>(base + 8 * w), 100 * w + kWrites);
    }
    EXPECT_EQ(ctx.runtime().pending_notices(page), 0u);
  });
  EXPECT_GE(f.cl.stats().node(0).write_notices_received, kWriters * kWrites);
}

TEST(DsmProtocol, NoticesCostNoClockCopies) {
  // Sanitizer runtimes shadow every allocation, so a resident-set bound
  // says nothing under them.
  if (CNI_MEMORY_SANITIZER) GTEST_SKIP() << "sanitizer shadow memory swamps the bound";
  // Every round, each of 128 nodes writes its own 8 pages, and the barrier
  // hands every node 127 intervals naming 1016 pages. A notice holding its
  // own copy of the writer's 128-entry clock would cost 512 bytes, ≈ 97 MB
  // per round across the cluster; a (writer, index) reference costs 8, so
  // what grows is the stored intervals themselves (≈ 14 MB per round).
  constexpr std::uint32_t kProcs = 128;
  constexpr std::uint32_t kPagesPerNode = 8;
  constexpr int kRounds = 6;
  cluster::SimParams params = make_params(BoardKind::kCni, kProcs);
  params.fabric.switch_ports = kProcs;
  cluster::Cluster cl(params);
  DsmSystem sys(cl);
  const std::uint64_t page_bytes = sys.geometry().size();
  const mem::VAddr base = sys.alloc(kProcs * kPagesPerNode * page_bytes, "pages");
  std::uint64_t after_round2 = 0;
  std::uint64_t after_last = 0;
  cl.run([&](std::size_t i, sim::SimThread& t) {
    DsmContext ctx(sys, i, t);
    const mem::VAddr mine = base + i * kPagesPerNode * page_bytes;
    for (int round = 1; round <= kRounds; ++round) {
      for (std::uint32_t p = 0; p < kPagesPerNode; ++p) {
        ctx.write<std::uint64_t>(mine + p * page_bytes, static_cast<std::uint64_t>(round));
      }
      ctx.barrier();
      if (i != 0) continue;
      if (round == 2) after_round2 = test_support::resident_bytes();
      if (round == kRounds) after_last = test_support::resident_bytes();
    }
  });
  EXPECT_EQ(cl.stats().total().barriers, std::uint64_t{kProcs} * kRounds);
  const std::uint64_t grown = after_last > after_round2 ? after_last - after_round2 : 0;
  EXPECT_LT(grown, std::uint64_t{150} << 20) << "resident set grew " << grown << " bytes";
}

TEST(DsmProtocol, IntervalRecordsAreHeldOncePerSimulation) {
  // A 32-node run with locks and barriers: most nodes learn most of the
  // others' intervals, yet the system's log holds each record once, and
  // every node's store resolves a record to the writer's logged bytes.
  constexpr std::uint32_t kProcs = 32;
  for (const cluster::CollectiveMode mode :
       {cluster::CollectiveMode::kHost, cluster::CollectiveMode::kNic}) {
    cluster::Cluster cl(make_params(BoardKind::kCni, kProcs));
    DsmParams dp;
    dp.collective = mode;
    DsmSystem sys(cl, dp);
    const std::uint64_t page_bytes = sys.geometry().size();
    const mem::VAddr pages = sys.alloc(kProcs * page_bytes, "pages");
    const mem::VAddr counter = sys.alloc(8, "counter");
    std::uint64_t total = 0;
    cl.run([&](std::size_t i, sim::SimThread& t) {
      DsmContext ctx(sys, i, t);
      for (std::uint32_t round = 1; round <= 3; ++round) {
        ctx.acquire(round);
        ctx.write<std::uint64_t>(counter, ctx.read<std::uint64_t>(counter) + 1);
        ctx.release(round);
        ctx.write<std::uint64_t>(pages + i * page_bytes, round);
        ctx.barrier();
      }
      if (i == 0) total = ctx.read<std::uint64_t>(counter);
    });
    EXPECT_EQ(total, 3u * kProcs);

    std::size_t records = 0;
    std::size_t record_bytes = 0;
    std::size_t known = 0;
    for (std::uint32_t n = 0; n < kProcs; ++n) {
      known += sys.runtime(n).interval_store().size();
    }
    for (std::uint32_t w = 0; w < kProcs; ++w) {
      const IntervalStore& own = sys.runtime(w).interval_store();
      for (std::uint32_t i = 1; own.contains(w, i); ++i) {
        ++records;
        record_bytes += own.at(w, i).wire.size();
        for (std::uint32_t n = 0; n < kProcs; ++n) {
          const IntervalStore& s = sys.runtime(n).interval_store();
          if (s.contains(w, i)) {
            ASSERT_EQ(s.at(w, i).wire.data(), own.at(w, i).wire.data());
          }
        }
      }
    }
    EXPECT_GE(records, 6u * kProcs);
    EXPECT_GT(known, 16 * records);  // on average known to over half the nodes
    const std::size_t held = sys.interval_log().bytes();
    EXPECT_GE(held, record_bytes);
    EXPECT_LE(held, record_bytes + IntervalLog::kMaxChunkBytes);
  }
}

TEST(DsmProtocol, JacobiPeakMemoryStaysFlatAsIterationsGrow) {
  if (CNI_MEMORY_SANITIZER) GTEST_SKIP() << "sanitizer shadow memory swamps the bound";
  // 128-proc CNI Jacobi (n = 512): every barrier hands each node the other
  // nodes' intervals. With one copy of each record per simulation, 12
  // iterations peak barely above 3 (with a copy per node it grew ≈ 180 MB).
  constexpr std::uint32_t kProcs = 128;
  cluster::SimParams params = make_params(BoardKind::kCni, kProcs);
  params.fabric.switch_ports = kProcs;
  apps::JacobiConfig cfg;
  cfg.n = 512;
  cfg.iterations = 3;
  (void)apps::run_jacobi(params, cfg);
  const std::uint64_t after3 = test_support::peak_resident_bytes();
  cfg.iterations = 12;
  (void)apps::run_jacobi(params, cfg);
  const std::uint64_t after12 = test_support::peak_resident_bytes();
  const std::uint64_t grown = after12 > after3 ? after12 - after3 : 0;
  EXPECT_LT(grown, std::uint64_t{40} << 20)
      << "peak resident set grew " << grown << " bytes";
}

TEST(Cluster, IdleNodesCommitNoPerNodeTables) {
  if (CNI_MEMORY_SANITIZER) GTEST_SKIP() << "sanitizer shadow memory swamps the bound";
  // The fig_barrier_scaling shape: 1,024 CNI nodes on a Clos fabric with
  // NIC-resident collectives. Until a node touches memory, its L1 tags
  // (like its L2 tags), TLB/RTLB entries and ADC descriptor rings (≈ 23 KB
  // a node, 23 MB in all) must not exist. What such a build does commit is its
  // boards, DSM runtimes with two 1,024-entry clocks each, the fabric and
  // the metric registries: ≈ 24 MB.
  constexpr std::uint32_t kNodes = 1024;
  cluster::SimParams params = make_params(BoardKind::kCni, kNodes);
  params.fabric.switch_ports = kNodes;
  params.fabric.topology = atm::TopologyKind::kClos;
  DsmParams dp;
  dp.collective = cluster::CollectiveMode::kNic;
  const std::uint64_t before = test_support::resident_bytes();
  cluster::Cluster cl(params);
  DsmSystem sys(cl, dp);
  const std::uint64_t after = test_support::resident_bytes();
  const std::uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::uint64_t{36} << 20) << "resident set grew " << grown << " bytes";
}

TEST(DsmProtocol, WorksOnStandardBoardToo) {
  Fixture f(3, BoardKind::kStandard);
  const mem::VAddr x = f.sys.alloc(256, "x");
  f.run([&](DsmContext& ctx) {
    ctx.write<std::uint64_t>(x + ctx.self() * 8, ctx.self() + 7);
    ctx.barrier();
    for (std::uint32_t w = 0; w < 3; ++w) {
      EXPECT_EQ(ctx.read<std::uint64_t>(x + w * 8), w + 7);
    }
  });
  // The standard board pays an interrupt per protocol message.
  EXPECT_GT(f.cl.stats().total().host_interrupts, 0u);
}

TEST(DsmProtocol, StatsAreAccountedOnCni) {
  Fixture f(2);
  const mem::VAddr x = f.sys.alloc(4096, "x");
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) {
      for (int i = 0; i < 64; ++i) ctx.write<std::uint64_t>(x + i * 8, i);
    }
    ctx.barrier();
    if (ctx.self() == 1) {
      for (int i = 0; i < 64; ++i) (void)ctx.read<std::uint64_t>(x + i * 8);
    }
    ctx.acquire(1);
    ctx.release(1);
    ctx.barrier();
  });
  const sim::NodeStats t = f.cl.stats().total();
  EXPECT_EQ(t.lock_acquires, 2u);
  EXPECT_EQ(t.barriers, 4u);
  EXPECT_GE(t.write_faults, 1u);
  EXPECT_GE(t.read_faults, 1u);
  EXPECT_GT(t.messages_sent, 0u);
  EXPECT_GT(t.compute_cycles, 0u);
  EXPECT_GT(t.synch_overhead_cycles, 0u);
  // CNI: protocol runs on the NIC — no per-message host interrupts beyond
  // (at most) the hybrid governor's idle-gap ones.
  EXPECT_LT(t.host_interrupts, t.messages_sent / 2);
}

TEST(DsmProtocol, ManyPagesStressWithRandomSharing) {
  Fixture f(4);
  const std::uint32_t kWords = 2048;  // 4 pages
  const mem::VAddr base = f.sys.alloc(kWords * 8, "arr");
  f.run([&](DsmContext& ctx) {
    const std::uint32_t me = ctx.self();
    for (std::uint32_t round = 0; round < 4; ++round) {
      // Strided ownership rotates each round.
      for (std::uint32_t w = (me + round) % 4; w < kWords; w += 4) {
        ctx.write<std::uint64_t>(base + w * 8, (round << 16) | w);
      }
      ctx.barrier();
      for (std::uint32_t w = 0; w < kWords; w += 17) {
        EXPECT_EQ(ctx.read<std::uint64_t>(base + w * 8),
                  (static_cast<std::uint64_t>(round) << 16) | w);
      }
      ctx.barrier();
    }
  });
}


TEST(DsmProtocol, ChainedWritesThroughDisjointLockChains) {
  // Regression for the base-staleness bug: a page written by two nodes
  // through unrelated lock chains, then cold-read by a third. The base copy
  // comes from one writer and must be patched with the other's diffs even
  // when vector clocks make the chains look ordered.
  Fixture f(3);
  const mem::VAddr arr = f.sys.alloc(4096, "arr");
  f.run([&](DsmContext& ctx) {
    switch (ctx.self()) {
      case 0:
        ctx.acquire(21);
        ctx.write<std::uint64_t>(arr, 111);  // word 0
        ctx.release(21);
        break;
      case 1:
        // Chain through an unrelated lock so node 1's clock dominates node
        // 0's without node 1 ever fetching node 0's data for this page.
        ctx.thread().delay(2 * sim::kMillisecond);
        ctx.acquire(21);
        ctx.release(21);
        ctx.acquire(22);
        ctx.write<std::uint64_t>(arr + 512, 222);  // word 64: same page
        ctx.release(22);
        break;
      case 2:
        ctx.thread().delay(8 * sim::kMillisecond);
        ctx.acquire(21);
        ctx.acquire(22);
        EXPECT_EQ(ctx.read<std::uint64_t>(arr), 111u);
        EXPECT_EQ(ctx.read<std::uint64_t>(arr + 512), 222u);
        ctx.release(22);
        ctx.release(21);
        break;
      default: break;
    }
  });
}

TEST(DsmProtocol, RepeatedOverwriteNeverResurrectsOldValues) {
  // Regression for the retained-diff coalescing bug: a page rewritten many
  // times by one node, then written by another, then read cold by a third —
  // the first writer's shipped history must not replay stale images over
  // the second writer's bytes.
  Fixture f(3);
  const mem::VAddr arr = f.sys.alloc(4096, "arr");
  f.run([&](DsmContext& ctx) {
    if (ctx.self() == 0) {
      for (std::uint64_t round = 1; round <= 5; ++round) {
        for (int w = 0; w < 512; ++w) ctx.write<std::uint64_t>(arr + w * 8, round);
        ctx.acquire(31);  // close an interval per round
        ctx.release(31);
      }
    }
    ctx.barrier();
    if (ctx.self() == 1) {
      ctx.write<std::uint64_t>(arr + 8, 777);  // overwrite one word
    }
    ctx.barrier();
    if (ctx.self() == 2) {
      EXPECT_EQ(ctx.read<std::uint64_t>(arr + 8), 777u);
      EXPECT_EQ(ctx.read<std::uint64_t>(arr), 5u);
      EXPECT_EQ(ctx.read<std::uint64_t>(arr + 4088), 5u);
    }
    ctx.barrier();
  });
}

// A bad shared access fails loudly in every build type instead of reading
// past the page table or the 4 KB frame.
TEST(DsmProtocolDeathTest, AccessPastTheRegionAborts) {
  EXPECT_DEATH(
      {
        Fixture f(1);
        const mem::VAddr x = f.sys.alloc(4096, "x");
        f.run([&](DsmContext& ctx) { (void)ctx.read<std::uint64_t>(x + 4096); });
      },
      "outside the allocated shared region");
}

TEST(DsmProtocolDeathTest, ReadStraddlingAPageAborts) {
  EXPECT_DEATH(
      {
        Fixture f(1);
        const mem::VAddr x = f.sys.alloc(2 * 4096, "x");
        f.run([&](DsmContext& ctx) { (void)ctx.read<std::uint64_t>(x + 4096 - 4); });
      },
      "straddles a page boundary");
}

}  // namespace
}  // namespace cni::dsm
