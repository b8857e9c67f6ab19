// Dual-ported memory, Application Device Channels, AIH segments and the
// hybrid polling governor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/adc.hpp"
#include "core/aih.hpp"
#include "core/dual_port.hpp"
#include "core/poll_governor.hpp"

namespace cni::core {
namespace {

TEST(DualPortMemory, AllocFreeCoalesce) {
  DualPortMemory mem(1024);
  auto a = mem.alloc(256);
  auto b = mem.alloc(256);
  auto c = mem.alloc(512);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(mem.used(), 1024u);
  EXPECT_FALSE(mem.alloc(1).has_value());
  mem.free(*a);
  mem.free(*b);
  // Freed neighbours coalesce into one 512-byte hole.
  EXPECT_TRUE(mem.alloc(512).has_value());
}

TEST(DualPortMemory, FreeCoalescesEitherSideAndHolesDoNotAdd) {
  DualPortMemory mem(1024);
  const auto a = mem.alloc(256);
  const auto b = mem.alloc(256);
  const auto c = mem.alloc(256);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*b, 256u);  // each split leaves the tail free after the block
  mem.free(*a);
  mem.free(*c);  // merges into the free tail on its right
  // 768 bytes are free, but in two holes: a 512-byte request fits only the
  // merged tail, and a larger one fits neither.
  EXPECT_EQ(mem.free_bytes(), 768u);
  EXPECT_FALSE(mem.alloc(768).has_value());
  const auto d = mem.alloc(512);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 512u);
  mem.free(*d);
  mem.free(*b);  // merges with the holes on both sides: one hole again
  EXPECT_EQ(mem.allocation_count(), 0u);
  const auto all = mem.alloc(1024);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, 0u);
}

TEST(DualPortMemoryDeathTest, FreeingAnUnallocatedOffsetAborts) {
  DualPortMemory mem(1024);
  const auto a = mem.alloc(256);
  ASSERT_TRUE(a.has_value());
  EXPECT_DEATH(mem.free(*a + 1), "not allocated");
  mem.free(*a);
  EXPECT_DEATH(mem.free(*a), "not allocated");
}

TEST(DualPortMemory, FirstFitReusesEarliestHole) {
  DualPortMemory mem(1024);
  auto a = mem.alloc(128);
  mem.alloc(128);
  mem.free(*a);
  auto c = mem.alloc(64);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);  // reused the first hole
}

TEST(DualPortMemory, AllocationCount) {
  DualPortMemory mem(1024);
  auto a = mem.alloc(100);
  mem.alloc(100);
  EXPECT_EQ(mem.allocation_count(), 2u);
  mem.free(*a);
  EXPECT_EQ(mem.allocation_count(), 1u);
}

TEST(DescriptorRing, PushPopWrapAround) {
  DescriptorRing ring(4);
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(ring.push(AdcDescriptor{0x1000 + i, 64, 0, 0}));
    }
    EXPECT_TRUE(ring.full());
    EXPECT_FALSE(ring.push(AdcDescriptor{}));
    for (std::uint32_t i = 0; i < 4; ++i) {
      auto d = ring.pop();
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->buffer_va, 0x1000 + i);
    }
    EXPECT_FALSE(ring.pop().has_value());
  }
}

TEST(DescriptorRing, GrowsOnDemandKeepingPushOrder) {
  // 200 is not a power of two: the last growth step is 128 -> 200.
  for (const std::uint32_t slots : {256u, 200u}) {
    DescriptorRing ring(slots);
    EXPECT_FALSE(ring.pop().has_value());
    EXPECT_EQ(ring.capacity(), 0u);  // a fresh ring holds no storage
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::vector<std::uint32_t> capacities;
    // Each round pushes three and pops two, so the outstanding count climbs
    // by one per round while head and tail both keep moving: every growth
    // step copies a live range that has wrapped around the old array.
    while (!ring.full()) {
      for (int i = 0; i < 3 && !ring.full(); ++i) {
        ASSERT_TRUE(ring.push(AdcDescriptor{0x1000 + pushed, 64, 0, 0}));
        ++pushed;
        if (capacities.empty() || capacities.back() != ring.capacity()) {
          capacities.push_back(ring.capacity());
        }
      }
      if (ring.full()) break;
      for (int i = 0; i < 2; ++i) {
        auto d = ring.pop();
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->buffer_va, 0x1000 + popped) << "pop " << popped;
        ++popped;
      }
    }
    // full() holds exactly at `slots` outstanding descriptors.
    EXPECT_EQ(ring.count(), slots);
    EXPECT_EQ(pushed - popped, slots);
    EXPECT_FALSE(ring.push(AdcDescriptor{}));
    std::vector<std::uint32_t> want;
    for (std::uint32_t c = DescriptorRing::kFirstCapacity; c < slots; c *= 2) want.push_back(c);
    want.push_back(slots);
    EXPECT_EQ(capacities, want);
    // Draining yields the rest in push order; one pop frees one slot.
    auto d = ring.pop();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->buffer_va, 0x1000 + popped++);
    EXPECT_FALSE(ring.full());
    while (auto next = ring.pop()) EXPECT_EQ(next->buffer_va, 0x1000 + popped++);
    EXPECT_EQ(popped, pushed);
    EXPECT_EQ(ring.capacity(), slots);
  }
}

TEST(AdcChannel, ProtectionVerifiedAtEnqueueOnly) {
  DualPortMemory mem(1 << 20);
  auto ch = AdcChannel::open(mem, 1, 0x10000, 0x1000, 16);
  ASSERT_TRUE(ch.has_value());
  // In-region buffer accepted.
  EXPECT_TRUE(ch->enqueue_tx(AdcDescriptor{0x10000, 0x100, 0, 0}));
  // Out-of-region buffer rejected — the protection check of paper §2.1.
  EXPECT_FALSE(ch->enqueue_tx(AdcDescriptor{0x20000, 0x100, 0, 0}));
  // Straddling the region end rejected.
  EXPECT_FALSE(ch->enqueue_tx(AdcDescriptor{0x10F80, 0x100, 0, 0}));
  EXPECT_EQ(ch->protection_rejects(), 2u);
}

TEST(AdcChannel, TripletQueuesAreIndependent) {
  DualPortMemory mem(1 << 20);
  auto ch = AdcChannel::open(mem, 1, 0, ~0ull, 8);
  ASSERT_TRUE(ch.has_value());
  EXPECT_TRUE(ch->post_receive_buffer(AdcDescriptor{0x1000, 4096, 0, 0}));
  EXPECT_TRUE(ch->enqueue_tx(AdcDescriptor{0x2000, 64, 0, 0}));
  auto rx_buf = ch->claim_receive_buffer();
  ASSERT_TRUE(rx_buf.has_value());
  EXPECT_EQ(rx_buf->buffer_va, 0x1000u);
  EXPECT_TRUE(ch->complete_receive(*rx_buf));
  auto done = ch->poll_receive();
  ASSERT_TRUE(done.has_value());
  auto tx = ch->dequeue_tx();
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->buffer_va, 0x2000u);
}

TEST(AdcChannel, OpenFailsWhenBoardMemoryExhausted) {
  DualPortMemory mem(64);  // far too small for three rings
  EXPECT_FALSE(AdcChannel::open(mem, 1, 0, ~0ull, 16).has_value());
}

TEST(AihRegion, InstallRemoveAccounting) {
  DualPortMemory mem(64 * 1024);
  AihRegion aih(mem);
  auto seg = aih.install(7, 16 * 1024);
  ASSERT_TRUE(seg.has_value());
  EXPECT_TRUE(aih.resident(7));
  EXPECT_EQ(aih.resident_bytes(), 16u * 1024);
  EXPECT_EQ(mem.used(), 16u * 1024);
  aih.remove(7);
  EXPECT_FALSE(aih.resident(7));
  EXPECT_EQ(mem.used(), 0u);
}

TEST(AihRegion, NoVirtualMemoryMeansWholeHandlerMustFit) {
  // Paper §2.3: no paging on the board — an oversized handler fails loudly.
  DualPortMemory mem(8 * 1024);
  AihRegion aih(mem);
  EXPECT_FALSE(aih.install(1, 16 * 1024).has_value());
}

// Drive the segment table through growth and interleaved erases, and
// verify the accounting never drifts.
TEST(AihRegion, ManyHandlersSurviveChurn) {
  DualPortMemory mem(1024 * 1024);
  AihRegion aih(mem);
  constexpr std::uint32_t kHandlers = 64;
  constexpr std::uint64_t kBytes = 1024;
  for (std::uint32_t id = 0; id < kHandlers; ++id) {
    ASSERT_TRUE(aih.install(id, kBytes).has_value());
  }
  EXPECT_EQ(aih.segment_count(), kHandlers);
  EXPECT_EQ(aih.resident_bytes(), kHandlers * kBytes);
  for (std::uint32_t id = 0; id < kHandlers; id += 2) aih.remove(id);
  for (std::uint32_t id = 0; id < kHandlers; ++id) {
    EXPECT_EQ(aih.resident(id), id % 2 == 1) << id;
  }
  EXPECT_EQ(aih.resident_bytes(), kHandlers / 2 * kBytes);
  // Reinstall into the holes; ids must not collide with survivors.
  for (std::uint32_t id = 0; id < kHandlers; id += 2) {
    ASSERT_TRUE(aih.install(id, kBytes).has_value());
  }
  EXPECT_EQ(aih.segment_count(), kHandlers);
  EXPECT_EQ(aih.resident_bytes(), kHandlers * kBytes);
}

TEST(AihRegion, ExhaustionLeavesAccountingUntouched) {
  // A refused install must not leak a segment or skew the residency numbers
  // the board's diagnostic prints — the caller may evict and retry.
  DualPortMemory mem(32 * 1024);
  AihRegion aih(mem);
  ASSERT_TRUE(aih.install(1, 24 * 1024).has_value());
  EXPECT_FALSE(aih.install(2, 16 * 1024).has_value());
  EXPECT_FALSE(aih.resident(2));
  EXPECT_EQ(aih.segment_count(), 1u);
  EXPECT_EQ(aih.resident_bytes(), 24u * 1024);
  EXPECT_EQ(aih.board_memory().free_bytes(), 8u * 1024);
  EXPECT_EQ(aih.board_memory().capacity(), 32u * 1024);
}

TEST(AihRegion, RemoveFreesSpaceForReinstall) {
  // Swap-out then swap-in reuses the freed board memory, exactly filling a
  // region that could not hold both handler generations at once.
  DualPortMemory mem(32 * 1024);
  AihRegion aih(mem);
  ASSERT_TRUE(aih.install(1, 24 * 1024).has_value());
  EXPECT_FALSE(aih.install(2, 16 * 1024).has_value());
  aih.remove(1);
  EXPECT_EQ(aih.resident_bytes(), 0u);
  ASSERT_TRUE(aih.install(2, 16 * 1024).has_value());
  ASSERT_TRUE(aih.install(3, 16 * 1024).has_value());
  EXPECT_EQ(aih.segment_count(), 2u);
  EXPECT_EQ(aih.resident_bytes(), 32u * 1024);
  EXPECT_EQ(aih.board_memory().free_bytes(), 0u);
}

TEST(PollGovernor, FirstArrivalInterrupts) {
  PollGovernor g(1 * sim::kMillisecond);
  EXPECT_TRUE(g.on_arrival(0));
}

TEST(PollGovernor, HighRateUsesPolling) {
  PollGovernor g(1 * sim::kMillisecond);
  g.on_arrival(0);
  std::uint64_t interrupts = 0;
  for (int i = 1; i <= 100; ++i) {
    if (g.on_arrival(static_cast<sim::SimTime>(i) * 10 * sim::kMicrosecond)) ++interrupts;
  }
  EXPECT_EQ(interrupts, 0u);  // 10 us gaps: the poll loop keeps up
  EXPECT_EQ(g.polled(), 100u);
}

TEST(PollGovernor, LongIdleGapRaisesInterrupt) {
  PollGovernor g(1 * sim::kMillisecond);
  g.on_arrival(0);
  for (int i = 1; i <= 10; ++i) {
    g.on_arrival(static_cast<sim::SimTime>(i) * 10 * sim::kMicrosecond);
  }
  // After 50 ms of silence the host has stopped polling.
  EXPECT_TRUE(g.on_arrival(50 * sim::kMillisecond));
}

}  // namespace
}  // namespace cni::core
