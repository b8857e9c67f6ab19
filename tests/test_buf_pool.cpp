// util::Buf and its per-thread block cache: size classes, refcount
// lifecycle, size-class reuse, cross-thread release, thread teardown and the
// Cluster purge; and util::U64FlatMap's lazy allocation. Heap traffic is
// observed directly: this binary replaces the global operator new/delete
// with counting versions (heap_calls.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "apps/runner.hpp"
#include "cluster/cluster.hpp"
#include "dsm/context.hpp"
#include "dsm/interval.hpp"
#include "dsm/system.hpp"
#include "heap_calls.hpp"
#include "util/buf_pool.hpp"
#include "util/flat_map.hpp"

namespace cni::util {
namespace {

using test_support::HeapCalls;

TEST(BufPool, ClassOfMapsQuarterOctaves) {
  EXPECT_EQ(Buf::class_of(1), 0u);
  EXPECT_EQ(Buf::class_of(64), 0u);
  EXPECT_EQ(Buf::class_of(65), 1u);  // 80 B
  EXPECT_EQ(Buf::class_of(80), 1u);
  EXPECT_EQ(Buf::class_of(81), 2u);  // 96 B
  EXPECT_EQ(Buf::class_of(128), 4u);
  EXPECT_EQ(Buf::class_of(129), 5u);  // 160 B: the next octave's first quarter
  EXPECT_EQ(Buf::class_bytes(0), 64u);
  EXPECT_EQ(Buf::class_bytes(1), 80u);
  EXPECT_EQ(Buf::class_bytes(4), 128u);
  EXPECT_EQ(Buf::class_bytes(5), 160u);
  // A 1,024-node barrier frame (24 + 4 + 4,096 + 4 bytes) and a 4,096-node one.
  EXPECT_EQ(Buf::class_bytes(Buf::class_of(4128)), 5120u);
  EXPECT_EQ(Buf::class_bytes(Buf::class_of(16416)), 20480u);
  EXPECT_EQ(Buf::class_of(64 * 1024), Buf::kClassCount - 1);
  EXPECT_EQ(Buf::class_bytes(Buf::kClassCount - 1), Buf::kMaxClassBytes);
  EXPECT_EQ(Buf::class_of(64 * 1024 + 1), Buf::kUnpooledClass);
}

TEST(BufPool, EveryRequestGetsTheSmallestClassThatFits) {
  // Exhaustive over the pooled range: the class holds the request, the
  // class below it does not, and above 64 B a block exceeds its request by
  // less than a quarter.
  std::uint32_t prev = 0;
  for (std::size_t n = 1; n <= Buf::kMaxClassBytes; ++n) {
    const std::uint32_t sc = Buf::class_of(n);
    ASSERT_LT(sc, Buf::kClassCount) << n;
    ASSERT_GE(sc, prev) << n;
    const std::size_t cap = Buf::class_bytes(sc);
    ASSERT_GE(cap, n) << n;
    if (sc > 0) {
      ASSERT_LT(Buf::class_bytes(sc - 1), n) << n;
    }
    if (n > Buf::kMinClassBytes) {
      ASSERT_LT(4 * (cap - n), n) << n;
    }
    prev = sc;
  }
  EXPECT_EQ(prev, Buf::kClassCount - 1);
  for (const std::size_t n : {1u, 65u, 100u, 4128u, 16416u, 65536u}) {
    EXPECT_EQ(Buf::alloc(n).capacity(), Buf::class_bytes(Buf::class_of(n))) << n;
  }
}

TEST(BufPool, RefcountLifecycle) {
  Buf a = Buf::alloc(100);
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.capacity(), 112u);  // rounded up to its size class
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_TRUE(a.unique());

  Buf b = a;  // copy shares
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_FALSE(a.unique());

  Buf c = std::move(b);  // move steals, no ref change
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)

  c.reset();
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_TRUE(a.unique());
}

TEST(BufPool, ReleaseAdoptRoundTrip) {
  Buf a = Buf::alloc(32);
  std::memset(a.data(), 0x5A, 32);
  const std::byte* p = a.data();

  BufCtrl* raw = a.release();
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_NE(raw, nullptr);

  Buf back = Buf::adopt(raw);
  EXPECT_EQ(back.data(), p);
  EXPECT_EQ(back.ref_count(), 1u);
  EXPECT_EQ(std::to_integer<int>(back.span()[31]), 0x5A);
}

TEST(BufPool, SetSizeWithinCapacity) {
  Buf a = Buf::alloc(10);
  EXPECT_EQ(a.size(), 10u);
  a.set_size(a.capacity());
  EXPECT_EQ(a.size(), a.capacity());
  a.set_size(0);
  EXPECT_TRUE(a.empty());
}

TEST(BufPool, SameClassAllocReusesFreedBlock) {
  Buf a = Buf::alloc(100);  // class 3 (112 B)
  const std::byte* p = a.data();
  const HeapCalls calls;
  a.reset();                // onto this thread's class-3 list
  Buf b = Buf::alloc(110);  // same class: the list hands the block back
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(calls.news(), 0u);
  EXPECT_EQ(calls.deletes(), 0u);
}

TEST(BufPool, AllocZeroedIsZeroFilled) {
  Buf a = Buf::alloc(256);
  std::memset(a.data(), 0xFF, 256);
  a.reset();  // dirty block back onto the list
  Buf b = Buf::alloc_zeroed(256);
  for (std::byte v : b.span()) EXPECT_EQ(std::to_integer<int>(v), 0);
}

TEST(BufPool, OversizeBlocksBypassThePool) {
  constexpr std::size_t kBytes = 128 * 1024 + 3;  // > kMaxClassBytes
  const HeapCalls calls;
  Buf a = Buf::alloc(kBytes);
  EXPECT_EQ(a.size(), kBytes);
  EXPECT_EQ(a.capacity(), kBytes);  // exact, not rounded to a class
  EXPECT_EQ(calls.news(), 1u);
  a.reset();  // straight back to the heap, never cached
  EXPECT_EQ(calls.deletes(), 1u);
  Buf b = Buf::alloc(kBytes);
  EXPECT_EQ(calls.news(), 2u);
}

TEST(BufPool, SteadyStateLoopIsAllHits) {
  { Buf warm = Buf::alloc(4096); }  // prime the size class
  const HeapCalls calls;
  for (int i = 0; i < 1000; ++i) {
    Buf b = Buf::alloc(4096);
    b.span()[0] = std::byte{1};
  }
  EXPECT_EQ(calls.news(), 0u);
  EXPECT_EQ(calls.deletes(), 0u);
}

TEST(BufPool, BackedIntervalDecodeMakesNoHeapCall) {
  // A received interval aliases its frame: decoding it pins the payload and
  // copies nothing (DESIGN.md §10).
  dsm::ByteWriter w;
  dsm::Interval::encode(1, 1, dsm::VectorClock(32), std::vector<dsm::PageId>{3, 4})
      .serialize(w);
  const Buf frame = w.take();
  const HeapCalls calls;
  dsm::PageId last = 0;
  {
    dsm::ByteReader r(frame, 0);
    const dsm::Interval iv = dsm::Interval::deserialize(r);
    last = iv.pages()[1];
  }
  EXPECT_EQ(calls.news(), 0u);
  EXPECT_EQ(calls.deletes(), 0u);
  EXPECT_EQ(last, 4u);
}

TEST(BufPool, FirstWriteToAFreshPageMakesNoHeapCall) {
  // A frame that still holds only zeros takes the system's zero page as its
  // twin instead of a pooled copy, so the write fault allocates nothing.
  // Node 1 holds a valid copy of the page, so it later applies node 0's
  // diff; its page must equal the writer's, as with a copied twin.
  cluster::Cluster cl(apps::make_params(cluster::BoardKind::kCni, 2));
  dsm::DsmSystem sys(cl);
  const std::uint64_t page_bytes = sys.geometry().size();
  const mem::VAddr warm = sys.alloc_at(page_bytes, "warm", 0);
  const mem::VAddr fresh = sys.alloc_at(page_bytes, "fresh", 0);
  std::uint64_t news = ~std::uint64_t{0};
  std::vector<std::uint64_t> seen[2];
  cl.run([&](std::size_t i, sim::SimThread& t) {
    dsm::DsmContext ctx(sys, i, t);
    (void)ctx.read<std::uint64_t>(fresh + 64);
    // Warm-up: a first write fault on another page, closed by the barrier.
    if (i == 0) ctx.write<std::uint64_t>(warm, 1);
    ctx.barrier();
    // Both simulated threads run on this host thread, so node 1 finishes its
    // barrier release and sleeps before node 0's write is counted. With the
    // block cache emptied, a pooled twin would have to call the heap.
    if (i == 0) {
      ctx.thread().delay(sim::kMillisecond);
      detail::BufCache::local()->purge();
      const HeapCalls calls;
      ctx.write<std::uint64_t>(fresh + 64, 0x5eed);
      news = calls.news();
    } else {
      ctx.thread().delay(2 * sim::kMillisecond);
    }
    ctx.barrier();
    for (std::uint64_t off = 0; off < page_bytes; off += 8) {
      seen[i].push_back(ctx.read<std::uint64_t>(fresh + off));
    }
  });
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(seen[1], seen[0]);
  EXPECT_EQ(seen[1][8], 0x5eedu);
  EXPECT_GE(cl.stats().node(1).diffs_applied, 1u);
  const std::span<const std::byte> zero = sys.zero_page().span();
  EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(BufPool, CrossThreadReleaseFreesToTheHeap) {
  Buf sent = Buf::alloc(300);  // class 9 (320 B)
  std::memset(sent.data(), 0x42, 300);
  Buf kept = Buf::alloc(300);

  std::uint64_t remote_deletes = 0;
  std::thread releaser([buf = std::move(sent), &remote_deletes]() mutable {
    EXPECT_EQ(std::to_integer<int>(buf.span()[299]), 0x42);
    const Buf own = Buf::alloc(300);  // this thread has a cache of its own
    const HeapCalls calls;
    buf.reset();  // not this thread's block: back to the heap
    remote_deletes = calls.deletes();
  });
  releaser.join();
  EXPECT_EQ(remote_deletes, 1u);

  const HeapCalls calls;
  kept.reset();  // this thread's block: onto its list
  EXPECT_EQ(calls.deletes(), 0u);
}

TEST(BufPool, BufOutlivesOwningThread) {
  // A sweep job's buffer may escape its thread: the last release, here on
  // the main thread after the owner and its cache are gone, frees it.
  Buf escaped;
  std::thread worker([&escaped] {
    escaped = Buf::alloc(1000);
    std::memset(escaped.data(), 0x7E, 1000);
  });
  worker.join();
  EXPECT_EQ(escaped.size(), 1000u);
  for (std::byte v : escaped.span()) EXPECT_EQ(std::to_integer<int>(v), 0x7E);
  const HeapCalls calls;
  escaped.reset();
  EXPECT_EQ(calls.deletes(), 1u);
}

// Heap calls made by TeardownHolder's destructor, read after the join.
std::uint64_t g_teardown_news = 0;
std::uint64_t g_teardown_deletes = 0;

/// A thread_local that outlives its thread's cache: it is constructed
/// before the cache, so thread teardown destroys it after the cache.
struct TeardownHolder {
  Buf held;
  TeardownHolder() = default;
  TeardownHolder(const TeardownHolder&) = delete;
  TeardownHolder& operator=(const TeardownHolder&) = delete;
  ~TeardownHolder() {
    const HeapCalls calls;
    held.reset();                  // its cache is gone: back to the heap
    Buf late = Buf::alloc(200);    // no cache to draw from: a heap block
    std::memset(late.data(), 0x11, 200);
    late.reset();                  // and straight back
    g_teardown_news = calls.news();
    g_teardown_deletes = calls.deletes();
  }
};

TEST(BufPool, ThreadLocalBufOutlivesTheThreadCache) {
  std::thread worker([] {
    thread_local TeardownHolder holder;  // registered before the cache
    holder.held = Buf::alloc(200);       // creates this thread's cache
    std::memset(holder.held.data(), 0x33, 200);
  });
  worker.join();
  EXPECT_EQ(g_teardown_news, 1u);
  EXPECT_EQ(g_teardown_deletes, 2u);
}

TEST(BufPool, ClusterTeardownReturnsCachedBlocksToTheHeap) {
  { Buf warm = Buf::alloc(4096); }  // leaves a 4 KiB block cached
  {
    const HeapCalls calls;
    Buf again = Buf::alloc(4096);
    EXPECT_EQ(calls.news(), 0u);
  }
  {
    cluster::Cluster cl(apps::make_params(cluster::BoardKind::kCni, 2));
    cl.run([](std::size_t, sim::SimThread&) {});
  }
  const HeapCalls calls;
  Buf after = Buf::alloc(4096);  // the purge emptied the list
  EXPECT_EQ(calls.news(), 1u);
}

TEST(U64FlatMap, MakesNoHeapCallBeforeItsFirstInsert) {
  // Most nodes of a large cluster never fill their page tables, buffer map
  // or channel map: a map holds no slots until it is used.
  const HeapCalls calls;
  {
    U64FlatMap<std::uint64_t> m;
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));
    m.for_each([](std::uint64_t, std::uint64_t) { ADD_FAILURE() << "an entry"; });
    EXPECT_EQ(calls.news(), 0u);
    m.insert(7, 70);  // the first insert allocates the slots, once
    EXPECT_EQ(calls.news(), 1u);
    EXPECT_EQ(*m.find(7), 70u);
  }
  EXPECT_EQ(calls.deletes(), 1u);
}

TEST(BufPool, FourThreadCrossReleaseStress) {
  // The parallel sweep shape under CNI_BENCH_JOBS=4: four threads allocate
  // from their own caches; every buffer is released by a *different* thread.
  static constexpr int kThreads = 4;
  static constexpr int kPerThread = 256;
  std::mutex mu;
  std::vector<Buf> handoff;

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t, &mu, &handoff] {
      for (int i = 0; i < kPerThread; ++i) {
        Buf b = Buf::alloc(64 + static_cast<std::size_t>(i));
        std::memset(b.data(), t + 1, b.size());
        const std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(std::move(b));
      }
    });
  }
  for (std::thread& p : producers) p.join();

  ASSERT_EQ(handoff.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<std::thread> consumers;
  consumers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    consumers.emplace_back([t, &mu, &handoff] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads) {
        Buf b;
        {
          const std::lock_guard<std::mutex> lock(mu);
          b = std::move(handoff[static_cast<std::size_t>(i)]);
        }
        const int tag = std::to_integer<int>(b.span()[0]);
        EXPECT_GE(tag, 1);
        EXPECT_LE(tag, kThreads);
        for (std::byte v : b.span()) EXPECT_EQ(std::to_integer<int>(v), tag);
        // b drops here — almost always a cross-thread release.
      }
    });
  }
  for (std::thread& c : consumers) c.join();
}

}  // namespace
}  // namespace cni::util
