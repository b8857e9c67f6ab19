// DSM building blocks: vector clocks, wire format, intervals, diffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "dsm/diff.hpp"
#include "dsm/interval.hpp"
#include "dsm/msg.hpp"
#include "dsm/page_state.hpp"
#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "heap_calls.hpp"
#include "util/buf_pool.hpp"
#include "util/rng.hpp"

namespace cni::dsm {
namespace {

TEST(VectorClock, DominationAndConcurrency) {
  VectorClock a(3);
  VectorClock b(3);
  EXPECT_TRUE(a.dominated_by(b));  // equal clocks dominate each other
  b.advance(1);
  EXPECT_TRUE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));
  a.advance(0);
  EXPECT_TRUE(a.concurrent_with(b));
}

TEST(VectorClock, MergeIsPointwiseMax) {
  VectorClock a(3);
  a.set(0, 5);
  a.set(2, 1);
  VectorClock b(3);
  b.set(1, 7);
  b.set(2, 3);
  a.merge(b);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 7u);
  EXPECT_EQ(a[2], 3u);
}

/// The entries of `vc` as one dense vector, read through its view.
std::vector<std::uint32_t> view_entries(ClockView vc) { return {vc.begin(), vc.end()}; }

TEST(VectorClock, RandomOperationsMatchADenseReference) {
  // Two clocks and two plain vectors take the same seeded operations. Values
  // stay small and sparse, so the clocks keep falling back to all zeros (no
  // storage) and leaving them again; whichever way a clock holds its
  // entries, reads, view bytes, == and dominated_by must match the vectors.
  using Dense = std::vector<std::uint32_t>;
  for (const std::size_t n : {std::size_t{1}, std::size_t{32}, std::size_t{1024},
                              std::size_t{4096}}) {
    util::SplitMix64 rng(0xC10C0000ULL + n);
    const Dense zeros(n);
    std::vector<VectorClock> clock(2, VectorClock(n));
    std::vector<Dense> ref(2, Dense(n));
    for (int step = 0; step < 600; ++step) {
      const std::size_t a = rng.next() % 2;
      const std::size_t b = 1 - a;
      const std::size_t i = rng.next() % n;
      const auto small = static_cast<std::uint32_t>(rng.next() % 3);
      switch (rng.next() % 10) {
        case 0:
          clock[a].set(i, small);
          ref[a][i] = small;
          break;
        case 1:
          clock[a].advance(i);
          ++ref[a][i];
          break;
        case 2:
          clock[a].merge(clock[b]);
          for (std::size_t k = 0; k < n; ++k) ref[a][k] = std::max(ref[a][k], ref[b][k]);
          break;
        case 3: {
          // From a view as it lies in a frame: the other clock's wire bytes.
          const Dense wire = view_entries(clock[b]);
          clock[a].merge(ClockView(reinterpret_cast<const std::byte*>(wire.data()), n));
          for (std::size_t k = 0; k < n; ++k) ref[a][k] = std::max(ref[a][k], ref[b][k]);
          break;
        }
        case 4:
        case 5:
          clock[a].min_in_place(clock[b]);
          for (std::size_t k = 0; k < n; ++k) ref[a][k] = std::min(ref[a][k], ref[b][k]);
          break;
        case 6:
          clock[a].assign(ClockView(reinterpret_cast<const std::byte*>(zeros.data()), n));
          ref[a] = zeros;
          break;
        case 7: {
          Dense wire(n);
          wire[i] = 1 + small;
          wire[rng.next() % n] = small;
          clock[a].assign(ClockView(reinterpret_cast<const std::byte*>(wire.data()), n));
          ref[a] = wire;
          break;
        }
        case 8: {
          const VectorClock copy(clock[b]);
          clock[a] = copy;
          ref[a] = ref[b];
          break;
        }
        default:
          clock[a] = VectorClock(n);
          ref[a] = zeros;
          break;
      }
      for (std::size_t k = 0; k < 2; ++k) {
        ASSERT_EQ(clock[k].size(), n);
        Dense read(n);
        for (std::size_t e = 0; e < n; ++e) read[e] = clock[k][e];
        ASSERT_EQ(read, ref[k]) << "n=" << n << " step " << step;
        const ClockView view = clock[k];
        ASSERT_EQ(view.size(), n);
        ASSERT_EQ(std::memcmp(view.bytes().data(), ref[k].data(), n * 4), 0)
            << "n=" << n << " step " << step;
      }
      ASSERT_EQ(clock[0] == clock[1], ref[0] == ref[1]) << "n=" << n << " step " << step;
      const auto dense_le = [](const Dense& x, const Dense& y) {
        return std::equal(x.begin(), x.end(), y.begin(), std::less_equal<std::uint32_t>());
      };
      ASSERT_EQ(clock[0].dominated_by(clock[1]), dense_le(ref[0], ref[1]));
      ASSERT_EQ(clock[1].dominated_by(clock[0]), dense_le(ref[1], ref[0]));
    }
  }
}

TEST(VectorClock, AllZeroClocksMakeNoHeapCall) {
  // 4,096 entries: what every node of a barrier-only fig_barrier_scaling
  // point holds, and copies into frames, manager slots and tree floors.
  constexpr std::size_t kNodes = 4096;
  const std::vector<std::uint32_t> wire(kNodes);  // a zero clock as a frame holds it
  const ClockView zero_view(reinterpret_cast<const std::byte*>(wire.data()), kNodes);
  VectorClock folded(kNodes);
  folded.advance(7);
  VectorClock reassigned(kNodes);
  reassigned.set(3, 9);

  const test_support::HeapCalls calls;
  VectorClock built(kNodes);
  VectorClock copy = built;
  copy.assign(zero_view);
  copy.merge(built);
  copy.merge(zero_view);
  built.min_in_place(copy);
  const ClockView view = copy;
  // Folded or assigned back to zeros, a clock frees its entries, so copies
  // of it allocate nothing either.
  folded.min_in_place(built);
  reassigned.assign(zero_view);
  const VectorClock copies[] = {folded, reassigned};
  const std::uint64_t news = calls.news();
  const std::uint64_t deletes = calls.deletes();

  EXPECT_EQ(news, 0u);
  EXPECT_EQ(deletes, 2u);  // folded's and reassigned's entries
  EXPECT_EQ(copy, built);
  EXPECT_EQ(copies[0], built);
  EXPECT_EQ(copies[1], built);
  ASSERT_EQ(view.size(), kNodes);
  EXPECT_EQ(std::memcmp(view.bytes().data(), wire.data(), kNodes * 4), 0);
  // A storage-less clock equals a materialized all-zero one.
  VectorClock materialized(kNodes);
  materialized.advance(0);
  materialized.set(0, 0);
  EXPECT_EQ(materialized, built);
  EXPECT_TRUE(materialized.dominated_by(built));
  EXPECT_TRUE(built.dominated_by(materialized));
}

TEST(VectorClockDeathTest, WiderThanTheZeroBlockAborts) {
  // Node ids are 16 bits on the wire: 65,536 entries is the widest clock.
  VectorClock widest(VectorClock::kMaxEntries);
  widest.set(VectorClock::kMaxEntries - 1, 1);
  EXPECT_EQ(widest[VectorClock::kMaxEntries - 1], 1u);
  EXPECT_EQ(ClockView(VectorClock(VectorClock::kMaxEntries))[VectorClock::kMaxEntries - 1], 0u);
  EXPECT_DEATH(VectorClock(VectorClock::kMaxEntries + 1), "CNI_CHECK failed");
  const std::vector<std::uint32_t> wire(VectorClock::kMaxEntries + 1);
  const ClockView wide(reinterpret_cast<const std::byte*>(wire.data()), wire.size());
  EXPECT_DEATH(VectorClock{wide}, "CNI_CHECK failed");
  VectorClock three(3);
  EXPECT_DEATH((void)three[3], "CNI_CHECK failed");
  EXPECT_DEATH(three.set(3, 1), "CNI_CHECK failed");
  EXPECT_DEATH(three.advance(3), "CNI_CHECK failed");
}

TEST(WireFormat, RoundTrip) {
  ByteWriter w;
  w.u32(42);
  w.u64(0xdeadbeefcafeULL);
  w.bytes(std::vector<std::byte>{std::byte{1}, std::byte{2}});
  VectorClock vc(2);
  vc.set(1, 9);
  w.clock(vc);
  w.clock(VectorClock());  // an empty clock is its entry count alone
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafeULL);
  const std::span<const std::byte> got = r.bytes();
  const std::vector<std::byte> want{std::byte{1}, std::byte{2}};
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(r.clock(), vc);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.clock(), VectorClock());
  EXPECT_TRUE(r.done());
}

TEST(WireFormat, TruncatedPayloadThrows) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.data());
  r.u32();
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireFormat, OversizedClockCountThrowsBeforeAllocating) {
  ByteWriter w;
  w.u32(0xFFFFFFFFu);  // clock entry count far beyond the payload
  ByteReader r(w.data());
  EXPECT_THROW(r.clock(), WireError);

  ByteWriter one_short;
  one_short.u32(3);  // promises three entries, carries two
  one_short.u32(1);
  one_short.u32(2);
  ByteReader r2(one_short.data());
  EXPECT_THROW(r2.clock(), WireError);
}

TEST(WireFormat, ClockWiderThanNodeIdsThrows) {
  const std::vector<std::uint32_t> wide(VectorClock::kMaxEntries + 1);
  ByteWriter w;
  w.clock(ClockView(reinterpret_cast<const std::byte*>(wide.data()), wide.size()));
  ByteReader r(w.data());
  EXPECT_THROW(r.clock(), WireError);
}

TEST(WireFormat, LargeClockBytesMatchPerEntryEncoding) {
  // 4096 entries: the largest node count fig_barrier_scaling runs.
  constexpr std::uint32_t kNodes = 4096;
  util::SplitMix64 rng(0xC10C4096ULL);
  VectorClock vc(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    vc.set(i, static_cast<std::uint32_t>(rng.next()));
  }
  ByteWriter w;
  w.clock(vc);
  ByteWriter per_entry;
  per_entry.u32(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) per_entry.u32(vc[i]);
  ASSERT_EQ(w.data().size(), per_entry.data().size());
  EXPECT_TRUE(std::equal(w.data().begin(), w.data().end(), per_entry.data().begin()));

  ByteReader r(w.data());
  EXPECT_EQ(r.clock(), vc);
  EXPECT_TRUE(r.done());
}

TEST(WireFormat, HeadroomSurvivesGrowthAndReserveKeepsTheBlock) {
  // 75 u64s after 24 bytes of headroom outgrow the first 256-byte block
  // twice (256 -> 512 -> 1024); every grow must carry the bytes written so far.
  constexpr std::uint64_t kWords = 75;
  ByteWriter w(kMsgHeadroom);
  const std::byte* block = w.data().data();
  int growths = 0;
  for (std::uint64_t i = 0; i < kWords; ++i) {
    w.u64(0x0102030405060708ULL * (i + 1));
    if (w.data().data() != block) {
      block = w.data().data();
      ++growths;
    }
  }
  EXPECT_EQ(growths, 2);
  const util::Buf out = w.take();
  ASSERT_EQ(out.size(), kMsgHeadroom + kWords * 8);
  ByteReader r(out, kMsgHeadroom);
  for (std::uint64_t i = 0; i < kWords; ++i) {
    EXPECT_EQ(r.u64(), 0x0102030405060708ULL * (i + 1));
  }
  EXPECT_TRUE(r.done());

  // Sized up front, as page replies are: the block never moves.
  const std::vector<std::byte> page(600, std::byte{0x5C});
  const std::size_t total = kMsgHeadroom + 4 + page.size();
  ByteWriter sized(kMsgHeadroom, total);
  const std::byte* base = sized.data().data();
  sized.bytes(page);
  EXPECT_EQ(sized.data().data(), base);
  EXPECT_EQ(sized.data().size(), total);
}

TEST(WireFormat, OversizedRunCountThrowsBeforeAllocating) {
  ByteWriter w;
  w.u32(7);            // writer
  w.clock(VectorClock(2));
  w.u32(0x40000000u);  // run count the payload cannot hold
  ByteReader r(w.data());
  EXPECT_THROW(Diff::deserialize(r), WireError);
}

TEST(WireFormat, ClockViewReadsUnalignedEntriesInPlace) {
  // A one-byte lead puts every entry off 4-byte alignment.
  VectorClock vc(5);
  for (std::uint32_t i = 0; i < 5; ++i) vc.set(i, 0x01010101u * (i + 1));
  ByteWriter w;
  w.append(std::vector<std::byte>{std::byte{0x7F}});
  w.clock(vc);
  const std::span<const std::byte> bytes = w.data();
  ByteReader r(bytes.subspan(1));
  const ClockView view = r.clock_view();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(view.bytes().data(), bytes.data() + 5);  // read in place
  ASSERT_EQ(view.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(view[i], vc[i]);
  EXPECT_EQ(VectorClock(view), vc);

  VectorClock merged(5);
  merged.set(0, 0xFFFFFFFFu);
  merged.merge(view);
  EXPECT_EQ(merged[0], 0xFFFFFFFFu);
  EXPECT_EQ(merged[4], vc[4]);
  VectorClock assigned(2);
  assigned.assign(view);
  EXPECT_EQ(assigned, vc);
  EXPECT_TRUE(view.dominated_by(merged));
  EXPECT_FALSE(ClockView(merged).dominated_by(view));
  EXPECT_DEATH((void)view[5], "CNI_CHECK failed");
}

/// An interval record of writer `w`'s interval `i` over `nodes`-entry
/// clocks, noticing `npages` pages (i, i + 1000, ...).
Interval make_interval(std::uint32_t w, std::uint32_t i, std::size_t nodes = 4,
                       std::size_t npages = 1) {
  VectorClock vc(nodes);
  vc.set(w, i);
  std::vector<PageId> pages;
  for (std::size_t k = 0; k < npages; ++k) pages.push_back(i + 1000 * k);
  return Interval::encode(w, i, vc, pages);
}

std::vector<PageId> pages_of(const Interval& iv) {
  const WireArray<PageId> pages = iv.pages();
  return {pages.begin(), pages.end()};
}

TEST(Interval, SerializeRoundTrip) {
  VectorClock vc(4);
  vc.set(3, 17);
  const Interval iv = Interval::encode(3, 17, vc, std::vector<PageId>{5, 9, 100});
  ByteWriter w;
  iv.serialize(w);
  EXPECT_EQ(w.data().size(), 16 + 4 * 4 + 3 * 8u);
  ByteReader r(w.data());
  const Interval out = Interval::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.writer, 3u);
  EXPECT_EQ(out.index, 17u);
  EXPECT_EQ(VectorClock(out.vc()), vc);
  EXPECT_EQ(pages_of(out), (std::vector<PageId>{5, 9, 100}));
  // A bare span has no refcount to share: the record was copied out.
  EXPECT_NE(out.wire.data(), w.data().data());
  EXPECT_EQ(out.wire.data(), out.keep.data());
}

TEST(Interval, BackedDeserializeAliasesTheFramePayload) {
  ByteWriter w;
  make_interval(1, 2, 8, 3).serialize(w);
  make_interval(1, 3, 8, 0).serialize(w);
  util::Buf payload = w.take();
  Interval a;
  Interval b;
  {
    ByteReader r(payload, 0);
    a = Interval::deserialize(r);
    b = Interval::deserialize(r);
    EXPECT_TRUE(r.done());
  }
  EXPECT_EQ(a.wire.data(), payload.data());
  EXPECT_EQ(b.wire.data(), payload.data() + a.wire.size());
  EXPECT_EQ(payload.ref_count(), 3u);  // each interval pins the payload
  payload.reset();
  EXPECT_EQ(pages_of(a), (std::vector<PageId>{2, 1002, 2002}));
  EXPECT_TRUE(pages_of(b).empty());
  EXPECT_EQ(b.vc()[1], 3u);
}

TEST(IntervalStore, InsertDedupsAndCounts) {
  IntervalLog log;
  IntervalStore s(log);
  EXPECT_TRUE(s.insert(make_interval(0, 1)));
  EXPECT_EQ(pages_of(s.at(0, 1)), std::vector<PageId>{1});
  EXPECT_FALSE(s.insert(make_interval(0, 1)));
  EXPECT_TRUE(s.insert(make_interval(0, 2)));
  EXPECT_TRUE(s.insert(make_interval(1, 1)));
  EXPECT_EQ(s.at(1, 1).writer, 1u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(0, 2));
  EXPECT_FALSE(s.contains(0, 3));
  EXPECT_FALSE(s.contains(2, 1));  // a writer with no log
  EXPECT_EQ(s.at(0, 2).vc()[0], 2u);
}

TEST(IntervalLog, DuplicateInsertCopiesNothing) {
  IntervalLog log;
  IntervalStore s(log);
  for (std::uint32_t i = 1; i <= 3; ++i) s.insert(make_interval(2, i, 4, 2));
  const std::size_t bytes = log.bytes();
  const std::byte* first = s.at(2, 1).wire.data();
  EXPECT_FALSE(s.insert(make_interval(2, 2, 4, 2)));
  EXPECT_FALSE(s.insert(make_interval(2, 3, 4, 7)));  // same id, other bytes
  EXPECT_EQ(log.bytes(), bytes);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(2, 1).wire.data(), first);
  EXPECT_EQ(pages_of(s.at(2, 3)).size(), 2u);
}

TEST(IntervalLog, ThirtyTwoStoresHoldOneCopy) {
  // Every node of a 32-node system learns the same 400 records; the log
  // holds them once, and every store's view is the logged bytes.
  constexpr std::uint32_t kNodes = 32;
  IntervalLog log;
  std::vector<IntervalStore> stores;
  stores.reserve(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) stores.emplace_back(log);
  std::vector<Interval> records;
  std::size_t record_bytes = 0;
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (std::uint32_t i = 1; i <= 50; ++i) {
      records.push_back(make_interval(w, i, kNodes, (w + i) % 7));
      record_bytes += records.back().wire.size();
    }
  }
  for (const Interval& iv : records) ASSERT_TRUE(stores[0].insert(iv));
  const std::size_t one_copy = log.bytes();
  EXPECT_GE(one_copy, record_bytes);
  EXPECT_LE(one_copy, record_bytes + IntervalLog::kMaxChunkBytes);
  for (std::uint32_t n = 1; n < kNodes; ++n) {
    for (const Interval& iv : records) ASSERT_TRUE(stores[n].insert(iv));
  }
  EXPECT_EQ(log.bytes(), one_copy);
  for (const IntervalStore& s : stores) {
    EXPECT_EQ(s.size(), records.size());
    EXPECT_EQ(s.at(7, 50).wire.data(), stores[0].at(7, 50).wire.data());
  }
}

TEST(IntervalLog, DifferingRecordAborts) {
  // The second store's copy of (0, 1) notices other pages than the logged
  // record: a forwarding bug, caught where it is inserted.
  IntervalLog log;
  IntervalStore writer(log);
  IntervalStore reader(log);
  writer.insert(make_interval(0, 1, 4, 2));
  EXPECT_DEATH(reader.insert(make_interval(0, 1, 4, 3)),
               "interval record differs from the logged one");
}

TEST(IntervalLog, DifferingLengthRecordAborts) {
  // The same (writer, index) with its logged bytes plus one more: equal on
  // every byte the two share, so only the length tells them apart.
  IntervalLog log;
  IntervalStore writer(log);
  IntervalStore reader(log);
  const Interval logged = make_interval(0, 1, 4, 2);
  writer.insert(logged);
  std::vector<std::byte> longer(logged.wire.begin(), logged.wire.end());
  longer.push_back(std::byte{0});
  const Interval forwarded{0, 1, {}, longer};
  EXPECT_DEATH(reader.insert(forwarded), "interval record differs from the logged one");
}

TEST(PageEntry, PendingKeepsTheNewestNoticePerWriter) {
  // Notices arrive in any writer order; the list stays sorted by writer with
  // one entry each, and a writer's second notice overwrites its first in
  // place, with no operator new.
  PageEntry e;
  e.add_notice({2, 1});
  e.add_notice({0, 4});
  e.add_notice({5, 1});
  const test_support::HeapCalls calls;
  e.add_notice({2, 2});
  e.add_notice({0, 5});
  EXPECT_EQ(calls.news(), 0u);
  ASSERT_EQ(e.pending.size(), 3u);
  EXPECT_EQ(e.pending[0].writer, 0u);
  EXPECT_EQ(e.pending[0].index, 5u);
  EXPECT_EQ(e.pending[1].writer, 2u);
  EXPECT_EQ(e.pending[1].index, 2u);
  EXPECT_EQ(e.pending[2].writer, 5u);
  EXPECT_EQ(e.pending[2].index, 1u);
}

TEST(IntervalLog, ManagerAndNodeStoresKeepSeparateCounts) {
  // The host-mode barrier manager's store and its node's own store share the
  // log but not what they know: the manager learning an interval must not
  // mark it seen for the node.
  IntervalLog log;
  IntervalStore node(log);
  IntervalStore manager(log);
  for (std::uint32_t i = 1; i <= 3; ++i) manager.insert(make_interval(1, i));
  manager.insert(make_interval(2, 1));
  EXPECT_TRUE(node.insert(make_interval(1, 1)));
  EXPECT_EQ(manager.size(), 4u);
  EXPECT_EQ(node.size(), 1u);
  EXPECT_TRUE(manager.contains(1, 3));
  EXPECT_FALSE(node.contains(1, 2));
  EXPECT_FALSE(node.contains(2, 1));
  EXPECT_EQ(node.unseen_by(VectorClock(4)).size(), 1u);
  EXPECT_EQ(manager.unseen_by(VectorClock(4)).size(), 4u);
  // The node learns the rest later, from the log's one copy.
  const std::size_t bytes = log.bytes();
  EXPECT_TRUE(node.insert(make_interval(1, 2)));
  EXPECT_FALSE(manager.insert(make_interval(1, 2)));
  EXPECT_EQ(log.bytes(), bytes);
  EXPECT_EQ(node.at(1, 2).wire.data(), manager.at(1, 2).wire.data());
}

TEST(IntervalStore, ForwardingIsByteExact) {
  // Records as they arrive in a grant go in; unseen_by() + serialize() must
  // give back exactly the same bytes, in (writer, index) order.
  ByteWriter in;
  std::vector<Interval> sent;
  for (std::uint32_t w = 0; w < 3; ++w) {
    for (std::uint32_t i = 1; i <= 4; ++i) {
      sent.push_back(make_interval(w, i, 16, (w + i) % 5));
    }
  }
  for (const Interval& iv : sent) iv.serialize(in);
  const util::Buf frame = in.take();

  IntervalLog log;
  IntervalStore s(log);
  ByteReader r(frame, 0);
  while (!r.done()) s.insert(Interval::view(r));
  ByteWriter out;
  for (const Interval& iv : s.unseen_by(VectorClock(16))) iv.serialize(out);
  ASSERT_EQ(out.data().size(), frame.size());
  EXPECT_TRUE(std::ranges::equal(out.data(), frame.span()));

  // A suffix: only writer 1's last interval is unseen.
  VectorClock seen(16);
  seen.set(0, 4);
  seen.set(1, 3);
  seen.set(2, 4);
  const std::vector<Interval> tail = s.unseen_by(seen);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].writer, 1u);
  EXPECT_EQ(tail[0].index, 4u);
  EXPECT_TRUE(std::ranges::equal(tail[0].wire, sent[7].wire));
}

TEST(IntervalLog, ViewsSurviveLaterInserts) {
  IntervalLog log;
  IntervalStore s(log);
  s.insert(make_interval(0, 1, 32, 3));
  const Interval early = s.at(0, 1);
  const ClockView early_vc = early.vc();
  // 10,000 more records across 8 writers, of varied sizes: the arena grows
  // through every chunk size, and no earlier view may move.
  std::vector<std::uint32_t> next(8, 1);
  next[0] = 2;
  util::SplitMix64 rng(0x57A7E5ULL);
  std::size_t record_bytes = early.wire.size();
  for (int k = 0; k < 10000; ++k) {
    const auto w = static_cast<std::uint32_t>(rng.next_below(8));
    const Interval iv = make_interval(w, next[w]++, 32, rng.next_below(12));
    record_bytes += iv.wire.size();
    ASSERT_TRUE(s.insert(iv));
  }
  EXPECT_EQ(s.size(), 10001u);
  EXPECT_EQ(early_vc[0], 1u);
  EXPECT_EQ(early_vc.size(), 32u);
  EXPECT_EQ(pages_of(early), (std::vector<PageId>{1, 1001, 2001}));
  EXPECT_EQ(s.at(0, 1).wire.data(), early.wire.data());
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (std::uint32_t i = 1; i < next[w]; ++i) {
      const Interval iv = s.at(w, i);
      ASSERT_EQ(iv.vc()[w], i);
      const WireArray<PageId> pages = iv.pages();
      if (pages.size() != 0) {
        ASSERT_EQ(pages[0], i);
      }
    }
  }
  // The arena holds the records plus at most about one chunk of slack.
  EXPECT_GE(log.bytes(), record_bytes);
  EXPECT_LE(log.bytes(), record_bytes + IntervalLog::kMaxChunkBytes);
}

TEST(IntervalStore, GapAborts) {
  IntervalLog log;
  IntervalStore s(log);
  s.insert(make_interval(0, 1));
  EXPECT_DEATH(s.insert(make_interval(0, 3)), "gap");
}

TEST(IntervalStore, AtMissingAborts) {
  IntervalLog log;
  IntervalStore s(log);
  s.insert(make_interval(0, 1));
  EXPECT_DEATH((void)s.at(0, 2), "notice names an interval not in the store");
  EXPECT_DEATH((void)s.at(3, 1), "notice names an interval not in the store");
  EXPECT_DEATH((void)s.at(0, 0), "notice names an interval not in the store");
}

TEST(IntervalStore, UnseenByReturnsSuffixes) {
  IntervalLog log;
  IntervalStore s(log);
  for (std::uint32_t i = 1; i <= 5; ++i) s.insert(make_interval(0, i));
  for (std::uint32_t i = 1; i <= 2; ++i) s.insert(make_interval(1, i));
  VectorClock seen(4);
  seen.set(0, 3);
  const auto unseen = s.unseen_by(seen);
  ASSERT_EQ(unseen.size(), 4u);  // writer 0: 4,5; writer 1: 1,2
  EXPECT_EQ(unseen[0].index, 4u);
  EXPECT_EQ(unseen[1].index, 5u);
  EXPECT_EQ(unseen[2].writer, 1u);

  // Sparse writers: only writer 3 has a log under a size-4 clock.
  IntervalLog sparse_log;
  IntervalStore sparse(sparse_log);
  for (std::uint32_t i = 1; i <= 3; ++i) sparse.insert(make_interval(3, i));
  VectorClock floor(4);
  floor.set(3, 1);
  auto got = sparse.unseen_by(floor);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].writer, 3u);
  EXPECT_EQ(got[0].index, 2u);
  EXPECT_EQ(got[1].writer, 3u);
  EXPECT_EQ(got[1].index, 3u);
  // A lower writer stored later still comes first.
  sparse.insert(make_interval(1, 1));
  got = sparse.unseen_by(floor);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].writer, 1u);
  EXPECT_EQ(got[0].index, 1u);
  EXPECT_EQ(got[1].writer, 3u);
  EXPECT_EQ(got[1].index, 2u);
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

/// Bytes one diff serializes to.
std::uint64_t serialized_size(const Diff& d) {
  ByteWriter w;
  d.serialize(w);
  return w.data().size();
}

/// The framing Diff::serialize writes: the writer, the clock's entry count
/// and entries, the run count, then each run's offset, length and bytes.
std::uint64_t framed_size(const Diff& d) {
  std::uint64_t n = 4 + 4 + 4 * std::uint64_t{d.vc.size()} + 4;
  for (const Diff::Run& r : d.runs) n += 4 + 4 + r.len;
  return n;
}

TEST(Diff, CapturesChangedRuns) {
  const auto twin = bytes_of("aaaaaaaaaaaaaaaaaaaaaaaa");
  auto cur = twin;
  cur[2] = std::byte{'X'};
  cur[3] = std::byte{'Y'};
  cur[20] = std::byte{'Z'};
  const Diff d = make_diff(1, VectorClock(2), twin, cur);
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].offset, 2u);
  EXPECT_EQ(d.runs[0].len, 2u);
  EXPECT_EQ(d.runs[1].offset, 20u);
}

TEST(Diff, NearbyRunsCoalesce) {
  const auto twin = bytes_of("aaaaaaaaaaaaaaaaaaaaaaaa");
  auto cur = twin;
  cur[2] = std::byte{'X'};
  cur[6] = std::byte{'Y'};  // 3 equal bytes apart: joined into one run
  const Diff d = make_diff(1, VectorClock(2), twin, cur);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].offset, 2u);
  EXPECT_EQ(d.runs[0].len, 5u);
}

TEST(Diff, ApplyReconstructsCurrent) {
  const auto twin = bytes_of("the quick brown fox jumps over the lazy dog");
  auto cur = twin;
  cur[4] = std::byte{'Q'};
  cur[10] = std::byte{'B'};
  cur[42] = std::byte{'G'};  // last byte: runs at the buffer edge must apply
  const Diff d = make_diff(0, VectorClock(2), twin, cur);
  auto replay = twin;
  apply_diff(d, replay);
  EXPECT_EQ(replay, cur);
}

TEST(Diff, EmptyWhenIdentical) {
  const auto twin = bytes_of("same");
  EXPECT_TRUE(make_diff(0, VectorClock(1), twin, twin).empty());
}

TEST(Diff, SerializeRoundTrip) {
  const auto twin = bytes_of("0123456789abcdef");
  auto cur = twin;
  cur[0] = std::byte{'Z'};
  cur[15] = std::byte{'Q'};
  Diff d = make_diff(2, VectorClock(3), twin, cur);
  ByteWriter w;
  d.serialize(w);
  ByteReader r(w.data());
  const Diff out = Diff::deserialize(r);
  EXPECT_EQ(out.writer, 2u);
  ASSERT_EQ(out.runs.size(), d.runs.size());
  auto replay = twin;
  apply_diff(out, replay);
  EXPECT_EQ(replay, cur);
}

TEST(Diff, WholePageChange) {
  std::vector<std::byte> twin(4096, std::byte{0});
  std::vector<std::byte> cur(4096, std::byte{1});
  const Diff d = make_diff(0, VectorClock(1), twin, cur);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].len, 4096u);
  EXPECT_EQ(serialized_size(d), framed_size(d));
  EXPECT_GT(serialized_size(d), 4096u);
}

TEST(Diff, JoinGapBoundary) {
  // Two dirty bytes kJoinGap apart coalesce; one byte further and they split.
  std::vector<std::byte> twin(64, std::byte{0});
  {
    auto cur = twin;
    cur[10] = std::byte{1};
    cur[10 + kJoinGap] = std::byte{1};
    const Diff d = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(d.runs.size(), 1u);
    EXPECT_EQ(d.runs[0].offset, 10u);
    EXPECT_EQ(d.runs[0].len, kJoinGap + 1);
  }
  {
    auto cur = twin;
    cur[10] = std::byte{1};
    cur[10 + kJoinGap + 1] = std::byte{1};
    const Diff d = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(d.runs.size(), 2u);
    EXPECT_EQ(d.runs[0].len, 1u);
    EXPECT_EQ(d.runs[1].offset, 10u + kJoinGap + 1);
  }
}

TEST(Diff, WordBoundaryStraddlingRuns) {
  // Changes crossing 8-byte word boundaries and in the non-word tail must
  // come out identical to a byte-wise scan.
  std::vector<std::byte> twin(67, std::byte{0x33});
  auto cur = twin;
  cur[7] = std::byte{0xA0};   // last byte of word 0
  cur[8] = std::byte{0xA1};   // first byte of word 1
  cur[63] = std::byte{0xA2};  // last full-word byte
  cur[66] = std::byte{0xA3};  // inside the 3-byte tail
  const Diff d = make_diff(0, VectorClock(1), twin, cur);
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].offset, 7u);
  EXPECT_EQ(d.runs[0].len, 2u);
  EXPECT_EQ(d.runs[1].offset, 63u);
  EXPECT_EQ(d.runs[1].len, 4u);
  auto replay = twin;
  apply_diff(d, replay);
  EXPECT_EQ(replay, cur);
}

/// Reference byte-wise differ: positions p < q land in one run iff
/// q - p <= kJoinGap. Used to cross-check the word-wise scanner.
std::vector<std::pair<std::uint32_t, std::uint32_t>> naive_runs(
    std::span<const std::byte> twin, std::span<const std::byte> cur) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;  // {offset, len}
  bool open = false;
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  for (std::uint32_t i = 0; i < cur.size(); ++i) {
    if (twin[i] == cur[i]) continue;
    if (open && i - last <= kJoinGap) {
      last = i;
    } else {
      if (open) runs.emplace_back(first, last - first + 1);
      open = true;
      first = last = i;
    }
  }
  if (open) runs.emplace_back(first, last - first + 1);
  return runs;
}

TEST(Diff, RandomizedMatchesByteWiseReference) {
  util::SplitMix64 rng(0xD1FFBEEF2026ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.next_below(4096);
    std::vector<std::byte> twin(len);
    for (std::byte& b : twin) b = static_cast<std::byte>(rng.next());
    auto cur = twin;
    const std::uint64_t flips = rng.next_below(64);
    for (std::uint64_t i = 0; i < flips; ++i) {
      cur[rng.next_below(len)] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    const Diff d = make_diff(1, VectorClock(2), twin, cur);
    const auto want = naive_runs(twin, cur);
    ASSERT_EQ(d.runs.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(d.runs[i].offset, want[i].first) << "trial " << trial;
      EXPECT_EQ(d.runs[i].len, want[i].second) << "trial " << trial;
    }
    auto replay = twin;
    apply_diff(d, replay);
    EXPECT_EQ(replay, cur) << "trial " << trial;
  }
}

TEST(Diff, RandomizedSerializeRoundTripAndPayloadBytes) {
  util::SplitMix64 rng(0xC0FFEE2026ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 64 + rng.next_below(2048);
    std::vector<std::byte> twin(len, std::byte{0});
    auto cur = twin;
    const std::uint64_t flips = 1 + rng.next_below(40);
    for (std::uint64_t i = 0; i < flips; ++i) {
      cur[rng.next_below(len)] = static_cast<std::byte>(1 + rng.next_below(255));
    }
    VectorClock vc(4);
    vc.set(trial % 4, static_cast<std::uint32_t>(trial) + 1);
    const Diff d = make_diff(static_cast<std::uint32_t>(trial % 4), vc, twin, cur);

    ByteWriter w;
    d.serialize(w);
    // The payload is exactly the framing Diff::serialize documents.
    EXPECT_EQ(w.data().size(), framed_size(d)) << "trial " << trial;

    ByteReader r(w.data());
    const Diff out = Diff::deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(out.writer, d.writer);
    EXPECT_EQ(VectorClock(out.vc), vc);
    auto replay = twin;
    apply_diff(out, replay);
    EXPECT_EQ(replay, cur) << "trial " << trial;
  }
}

TEST(Diff, ExtremeImagesRoundTrip) {
  // All-equal and all-different pages, word-multiple and ragged lengths.
  for (const std::size_t len : {8u * 512u, 4093u}) {
    std::vector<std::byte> twin(len, std::byte{0xAB});
    const Diff same = make_diff(0, VectorClock(1), twin, twin);
    EXPECT_TRUE(same.empty());
    EXPECT_EQ(serialized_size(same), 16u);  // writer, 1-entry clock, no runs

    std::vector<std::byte> cur(len, std::byte{0xCD});
    const Diff all = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(all.runs.size(), 1u);
    EXPECT_EQ(all.runs[0].len, len);
    auto replay = twin;
    apply_diff(all, replay);
    EXPECT_EQ(replay, cur);
  }
}

TEST(Diff, BackedDeserializeAliasesTheFramePayload) {
  // A reader over a pooled payload must hand out runs that alias that
  // buffer (zero-copy receive) and keep it alive through the arena ref.
  const auto twin = bytes_of("aaaaaaaaaaaaaaaabbbbbbbbbbbbbbbb");
  auto cur = twin;
  cur[3] = std::byte{'X'};
  cur[30] = std::byte{'Y'};
  Diff d = make_diff(1, VectorClock(2), twin, cur);

  ByteWriter w;
  d.serialize(w);
  util::Buf payload = std::move(w).take();
  const std::byte* lo = payload.data();
  const std::byte* hi = lo + payload.size();

  Diff out;
  {
    ByteReader r(payload, 0);
    out = Diff::deserialize(r);
  }
  ASSERT_EQ(out.runs.size(), 2u);
  for (const Diff::Run& run : out.runs) {
    const std::span<const std::byte> bytes = out.run_bytes(run);
    EXPECT_GE(bytes.data(), lo);
    EXPECT_LT(bytes.data(), hi);
  }
  EXPECT_GE(out.vc.bytes().data(), lo);  // the clock is read in place too
  EXPECT_LE(out.vc.bytes().data() + out.vc.bytes().size(), hi);
  EXPECT_EQ(payload.ref_count(), 2u);  // the diff arena shares the payload

  payload.reset();  // diff's reference alone keeps the bytes valid
  auto replay = twin;
  apply_diff(out, replay);
  EXPECT_EQ(replay, cur);
}

// ---------------------------------------------------------------------------
// sort_for_apply: the order a faulting node applies fetched diffs in.

std::uint64_t clock_sum(ClockView vc) {
  return std::accumulate(vc.begin(), vc.end(), std::uint64_t{0});
}

bool strictly_before(ClockView a, ClockView b) {
  return a.dominated_by(b) && !std::ranges::equal(a.bytes(), b.bytes());
}

/// A diff by `writer` at `vc` that sets the listed bytes of a zero page.
Diff write_diff(std::uint32_t writer, const VectorClock& vc, std::size_t page_bytes,
                std::initializer_list<std::pair<std::size_t, std::byte>> writes) {
  const std::vector<std::byte> twin(page_bytes, std::byte{0});
  auto cur = twin;
  for (const auto& [at, b] : writes) cur[at] = b;
  return make_diff(writer, vc, twin, cur);
}

TEST(DiffOrder, ChainedOverwriteReplaysNewestLast) {
  // Writer 5 writes byte 10 under a lock; writer 2 acquires the lock and
  // rewrites it. The newer diff has the lower writer id and arrives first.
  VectorClock older(8);
  older.set(5, 1);
  VectorClock newer = older;
  newer.advance(2);
  std::vector<Diff> diffs;
  diffs.push_back(write_diff(2, newer, 64, {{10, std::byte{0xBB}}}));
  diffs.push_back(write_diff(5, older, 64, {{10, std::byte{0xAA}}}));
  sort_for_apply(diffs);
  std::vector<std::byte> page(64, std::byte{0});
  for (const Diff& d : diffs) apply_diff(d, page);
  EXPECT_EQ(page[10], std::byte{0xBB});
}

TEST(DiffOrder, MismatchedClockSizesAbort) {
  std::vector<Diff> diffs;
  diffs.push_back(write_diff(0, VectorClock(4), 16, {{0, std::byte{1}}}));
  diffs.push_back(write_diff(1, VectorClock(5), 16, {{1, std::byte{1}}}));
  EXPECT_DEATH(sort_for_apply(diffs), "CNI_CHECK failed");
}

TEST(DiffOrder, RandomCausalHistoriesSortIntoHappenedBeforeOrder) {
  // 32 writers take 4 locks at random and now and then merge another
  // writer's clock, as a message would. Each acquire-write-release is one
  // interval and one diff: it rewrites the lock's 4-byte slot (so each
  // lock's diffs form a happened-before chain over the same bytes) and sets
  // a marker byte of its own, whose position identifies the diff. Every
  // eighth interval also ships a second diff with the same writer and clock
  // and only a marker: an equal sort key. 288 intervals give 324 diffs;
  // Water 216's largest fetch sorts 270.
  constexpr std::uint32_t kWriters = 32;
  constexpr std::uint32_t kLocks = 4;
  constexpr std::uint32_t kIntervals = 288;
  constexpr std::size_t kSlotStride = 16;
  constexpr std::size_t kMarkers = kLocks * kSlotStride;  // first marker byte
  constexpr std::size_t kPage = 1024;
  const auto id_of = [](const Diff& d) { return d.runs.back().offset - kMarkers; };

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    util::SplitMix64 rng(0x0D1FF0DE7ULL + trial);
    std::vector<VectorClock> node(kWriters, VectorClock(kWriters));
    std::vector<VectorClock> lock(kLocks, VectorClock(kWriters));
    std::vector<std::byte> want(kPage, std::byte{0});
    std::vector<Diff> diffs;
    for (std::uint32_t step = 0; step < kIntervals; ++step) {
      const auto w = static_cast<std::uint32_t>(rng.next_below(kWriters));
      if (rng.next_below(4) == 0) node[w].merge(node[rng.next_below(kWriters)]);
      const std::size_t l = rng.next_below(kLocks);
      node[w].merge(lock[l]);  // acquire
      node[w].advance(w);
      const auto v = static_cast<std::byte>(1 + step % 255);
      const std::size_t slot = l * kSlotStride;
      const std::size_t marker = kMarkers + diffs.size();
      diffs.push_back(write_diff(w, node[w], kPage,
                                 {{slot, v}, {slot + 1, v}, {slot + 2, v}, {slot + 3, v},
                                  {marker, std::byte{0xFF}}}));
      for (std::size_t b = slot; b < slot + 4; ++b) want[b] = v;
      want[marker] = std::byte{0xFF};
      if (step % 8 == 0) {
        const std::size_t extra = kMarkers + diffs.size();
        diffs.push_back(write_diff(w, node[w], kPage, {{extra, std::byte{0xFE}}}));
        want[extra] = std::byte{0xFE};
      }
      lock[l] = node[w];  // release
    }
    ASSERT_GE(diffs.size(), 256u);
    ASSERT_LE(kMarkers + diffs.size(), kPage);

    for (std::size_t i = diffs.size() - 1; i > 0; --i) {
      std::swap(diffs[i], diffs[rng.next_below(i + 1)]);
    }
    std::vector<std::size_t> input_pos(diffs.size());
    for (std::size_t i = 0; i < diffs.size(); ++i) input_pos[id_of(diffs[i])] = i;

    sort_for_apply(diffs);

    for (std::size_t i = 0; i < diffs.size(); ++i) {
      for (std::size_t j = i + 1; j < diffs.size(); ++j) {
        ASSERT_FALSE(strictly_before(diffs[j].vc, diffs[i].vc))
            << "trial " << trial << ": position " << j << " happened-before " << i;
      }
    }
    for (std::size_t i = 1; i < diffs.size(); ++i) {
      const Diff& a = diffs[i - 1];
      const Diff& b = diffs[i];
      const auto ka = std::pair(clock_sum(a.vc), a.writer);
      const auto kb = std::pair(clock_sum(b.vc), b.writer);
      ASSERT_LE(ka, kb) << "trial " << trial << " at " << i;
      if (ka == kb) {
        EXPECT_LT(input_pos[id_of(a)], input_pos[id_of(b)])
            << "trial " << trial << ": equal keys out of input order at " << i;
      }
    }
    std::vector<std::byte> page(kPage, std::byte{0});
    for (const Diff& d : diffs) apply_diff(d, page);
    EXPECT_EQ(page, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cni::dsm
