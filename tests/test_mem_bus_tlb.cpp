#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/tlb.hpp"
#include "sim/engine.hpp"

namespace cni::mem {
namespace {

TEST(MemoryBus, TransactionTimeMatchesTable1) {
  sim::Engine e;
  MemoryBus bus(e, BusParams{});
  // 4 KB = 512 words: (4 + 2*512) bus cycles at 40 ns = 41.12 us.
  const sim::SimDuration d = bus.transaction_time(4096);
  EXPECT_EQ(d, (4 + 2 * 512) * 40000ull);
  // One word still pays acquisition.
  EXPECT_EQ(bus.transaction_time(8), (4 + 2) * 40000ull);
}

TEST(MemoryBus, DmaSerializes) {
  sim::Engine e;
  MemoryBus bus(e, BusParams{});
  const sim::SimTime t1 = bus.dma_read(0, 4096);
  const sim::SimTime t2 = bus.dma_read(0, 4096);
  EXPECT_EQ(t2, 2 * t1);  // second transfer queues behind the first
  EXPECT_EQ(bus.dma_transfers(), 2u);
  EXPECT_EQ(bus.dma_bytes(), 8192u);
}

TEST(MemoryBus, WritesAreSnooped) {
  sim::Engine e;
  MemoryBus bus(e, BusParams{});
  std::vector<std::pair<PAddr, std::uint64_t>> snooped;
  bus.add_snooper([&](PAddr a, std::uint64_t n) { snooped.emplace_back(a, n); });
  bus.cpu_write(0x100, 32);
  bus.dma_write(0, 0x2000, 4096);
  bus.dma_read(0, 4096);  // reads are NOT snooped
  ASSERT_EQ(snooped.size(), 2u);
  EXPECT_EQ(snooped[0], (std::pair<PAddr, std::uint64_t>{0x100, 32}));
  EXPECT_EQ(snooped[1], (std::pair<PAddr, std::uint64_t>{0x2000, 4096}));
}

TEST(PageTable, TranslateIsStableAndReversible) {
  PageTable pt{PageGeometry(4096)};
  const PAddr pa1 = pt.translate(0x7000'0123);
  const PAddr pa2 = pt.translate(0x7000'0456);
  EXPECT_EQ(pa1 & ~0xFFFull, pa2 & ~0xFFFull);  // same page, same frame
  EXPECT_EQ(pa1 & 0xFFFu, 0x123u);              // offset preserved
  // The reverse map takes the frame back to its virtual page.
  const PageGeometry geo(4096);
  EXPECT_EQ(pt.vpn_of(geo.page_of(pa1)), std::optional<PageNum>(geo.page_of(0x7000'0123)));
  EXPECT_EQ(pt.frame_of(geo.page_of(0x7000'0123)), geo.page_of(pa1));
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, DistinctPagesDistinctFrames) {
  PageTable pt{PageGeometry(4096)};
  const PAddr a = pt.translate(0x1000);
  const PAddr b = pt.translate(0x2000);
  EXPECT_NE(a & ~0xFFFull, b & ~0xFFFull);
}

TEST(PageTable, ReverseOfUnmappedIsEmpty) {
  PageTable pt{PageGeometry(4096)};
  EXPECT_FALSE(pt.vpn_of(0xdead).has_value());
  const PageNum mapped = pt.frame_of(0x7);
  EXPECT_FALSE(pt.vpn_of(mapped + 1).has_value());
}

TEST(Tlb, HitAfterMiss) {
  PageTable pt{PageGeometry(4096)};
  Tlb tlb(16, 20);
  // Before the first lookup the TLB holds no entries, so the first lookup
  // misses.
  EXPECT_EQ(tlb.lookups(), 0u);
  auto resolve = [&](PageNum vpn) { return std::optional<PageNum>(pt.frame_of(vpn)); };
  std::uint64_t cycles = 0;
  auto r1 = tlb.lookup(5, resolve, &cycles);
  EXPECT_TRUE(r1.has_value());
  EXPECT_EQ(cycles, 20u);  // miss penalty charged
  cycles = 0;
  auto r2 = tlb.lookup(5, resolve, &cycles);
  EXPECT_EQ(r2, r1);
  EXPECT_EQ(cycles, 0u);  // hit: free
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.lookups(), 2u);
}

TEST(Tlb, ConflictingKeysEvict) {
  PageTable pt{PageGeometry(4096)};
  Tlb tlb(16, 20);  // direct-mapped: keys 5 and 21 share a slot
  auto resolve = [&](PageNum vpn) { return std::optional<PageNum>(pt.frame_of(vpn)); };
  std::uint64_t cycles = 0;
  tlb.lookup(5, resolve, &cycles);
  tlb.lookup(21, resolve, &cycles);
  cycles = 0;
  tlb.lookup(5, resolve, &cycles);
  EXPECT_EQ(cycles, 20u);  // was evicted by 21
}

TEST(Tlb, UnmappedResolvesEmpty) {
  Tlb tlb(16, 20);
  std::uint64_t cycles = 0;
  auto r = tlb.lookup(7, [](PageNum) { return std::optional<PageNum>{}; }, &cycles);
  EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace cni::mem
