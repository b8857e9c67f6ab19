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

TEST(DualPortMemory, BumpAllocatesInOrderUntilFull) {
  DualPortMemory mem(1024);
  const auto a = mem.alloc(256);
  const auto b = mem.alloc(256);
  const auto c = mem.alloc(512);
  ASSERT_TRUE(a && b && c);
  // Each block starts where the previous one ended.
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 256u);
  EXPECT_EQ(*c, 512u);
  EXPECT_EQ(mem.used(), 1024u);
  EXPECT_EQ(mem.free_bytes(), 0u);
  EXPECT_FALSE(mem.alloc(1).has_value());
}

TEST(DualPortMemory, RefusalLeavesUsageUntouchedAndCannotWrap) {
  DualPortMemory mem(1024);
  ASSERT_TRUE(mem.alloc(100).has_value());
  EXPECT_FALSE(mem.alloc(925).has_value());  // one byte more than is left
  // A request near 2^64 would wrap `used + bytes` below the capacity.
  EXPECT_FALSE(mem.alloc(~std::uint64_t{0} - 50).has_value());
  EXPECT_EQ(mem.used(), 100u);
  const auto rest = mem.alloc(924);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(*rest, 100u);
  EXPECT_EQ(mem.free_bytes(), 0u);
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

TEST(AdcChannel, OpenChargesTheWholeTriplet) {
  // Only the transmit queue is simulated, but the channel's board memory is
  // the paper's transmit/receive/free triplet: the next channel starts after
  // all three rings.
  DualPortMemory mem(1 << 20);
  auto ch = AdcChannel::open(mem, 1, 0, ~0ull, 8);
  ASSERT_TRUE(ch.has_value());
  EXPECT_EQ(mem.used(), 3 * DescriptorRing::footprint_bytes(8));
  auto next = AdcChannel::open(mem, 2, 0, ~0ull, 8);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(mem.used(), 6 * DescriptorRing::footprint_bytes(8));
  EXPECT_TRUE(ch->enqueue_tx(AdcDescriptor{0x2000, 64, 0, 0}));
  EXPECT_TRUE(next->enqueue_tx(AdcDescriptor{0x3000, 64, 0, 0}));
  auto tx = ch->dequeue_tx();
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->buffer_va, 0x2000u);
  EXPECT_FALSE(ch->dequeue_tx().has_value());
  EXPECT_EQ(next->tx_ring().count(), 1u);  // each channel has its own ring
}

TEST(AdcChannel, OpenFailsWhenBoardMemoryExhausted) {
  DualPortMemory mem(64);  // far too small for three rings
  EXPECT_FALSE(AdcChannel::open(mem, 1, 0, ~0ull, 16).has_value());
}

TEST(AihRegion, InstallAccounting) {
  DualPortMemory mem(64 * 1024);
  AihRegion aih(mem);
  EXPECT_FALSE(aih.resident(7));
  auto seg = aih.install(7, 16 * 1024);
  ASSERT_TRUE(seg.has_value());
  EXPECT_TRUE(aih.resident(7));
  EXPECT_FALSE(aih.resident(8));
  EXPECT_EQ(seg->code_bytes, 16u * 1024);
  EXPECT_EQ(aih.resident_bytes(), 16u * 1024);
  EXPECT_EQ(mem.used(), 16u * 1024);
}

TEST(AihRegion, NoVirtualMemoryMeansWholeHandlerMustFit) {
  // Paper §2.3: no paging on the board — an oversized handler fails loudly.
  DualPortMemory mem(8 * 1024);
  AihRegion aih(mem);
  EXPECT_FALSE(aih.install(1, 16 * 1024).has_value());
}

// Drive the segment table through growth and verify the accounting and the
// segments' placement never drift.
TEST(AihRegion, ManyHandlersTileBoardMemory) {
  DualPortMemory mem(1024 * 1024);
  AihRegion aih(mem);
  constexpr std::uint32_t kHandlers = 64;
  constexpr std::uint64_t kBytes = 1024;
  for (std::uint32_t k = 0; k < kHandlers; ++k) {
    // Odd ids first, then even ones: residency is by id, not install order.
    const std::uint32_t id = k < kHandlers / 2 ? 2 * k + 1 : 2 * (k - kHandlers / 2);
    ASSERT_FALSE(aih.resident(id));
    const auto seg = aih.install(id, kBytes);
    ASSERT_TRUE(seg.has_value());
    EXPECT_EQ(seg->board_offset, k * kBytes) << id;  // segments tile the board
    EXPECT_TRUE(aih.resident(id));
  }
  for (std::uint32_t id = 0; id < kHandlers; ++id) EXPECT_TRUE(aih.resident(id)) << id;
  EXPECT_FALSE(aih.resident(kHandlers));
  EXPECT_EQ(aih.segment_count(), kHandlers);
  EXPECT_EQ(aih.resident_bytes(), kHandlers * kBytes);
  EXPECT_EQ(mem.used(), kHandlers * kBytes);
}

TEST(AihRegion, ExhaustionLeavesAccountingUntouched) {
  // A refused install must not leak a segment or skew the residency numbers
  // the board's diagnostic prints.
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
