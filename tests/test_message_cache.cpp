#include <gtest/gtest.h>

#include "core/message_cache.hpp"

namespace cni::core {
namespace {

constexpr std::uint64_t kPage = 4096;

MessageCache make_cache(std::uint64_t buffers) {
  return MessageCache(mem::PageGeometry(kPage), buffers * kPage);
}

TEST(MessageCache, BufferCountFromCapacity) {
  // Table 1: 32 KB cache = 8 buffers of one 4 KB page each.
  MessageCache mc(mem::PageGeometry(kPage), 32 * 1024);
  EXPECT_EQ(mc.buffer_count(), 8u);
}

TEST(MessageCache, MissThenInsertThenHit) {
  MessageCache mc = make_cache(4);
  EXPECT_FALSE(mc.lookup_tx(0x10000, kPage));
  mc.insert(0x10000, kPage);
  EXPECT_TRUE(mc.lookup_tx(0x10000, kPage));
  EXPECT_EQ(mc.tx_lookups(), 2u);
  EXPECT_EQ(mc.tx_hits(), 1u);
}

TEST(MessageCache, MultiPageRangeNeedsAllPages) {
  MessageCache mc = make_cache(4);
  mc.insert(0x10000, kPage);  // only the first page of a 2-page message
  EXPECT_FALSE(mc.lookup_tx(0x10000, 2 * kPage));
  mc.insert(0x10000 + kPage, kPage);
  EXPECT_TRUE(mc.lookup_tx(0x10000, 2 * kPage));
}

TEST(MessageCache, ClockSecondChancePreservesTouchedBuffer) {
  // Clock (second-chance) replacement: after the first full sweep clears
  // the reference bits, a buffer touched since survives the next eviction.
  MessageCache mc = make_cache(3);
  mc.insert(0x1000, 1);  // A
  mc.insert(0x2000, 1);  // B
  mc.insert(0x3000, 1);  // C
  mc.insert(0x4000, 1);  // D: sweep clears A,B,C then evicts A
  EXPECT_EQ(mc.evictions(), 1u);
  EXPECT_FALSE(mc.contains(0x1000, 1));
  EXPECT_TRUE(mc.lookup_tx(0x2000, 1));  // touch B: reference bit set again
  mc.insert(0x5000, 1);                  // E: B gets its second chance; C is the victim
  EXPECT_TRUE(mc.contains(0x2000, 1));
  EXPECT_FALSE(mc.contains(0x3000, 1));
  EXPECT_TRUE(mc.contains(0x4000, 1));
  EXPECT_TRUE(mc.contains(0x5000, 1));
}

TEST(MessageCache, SequentialFillEvictsInOrder) {
  MessageCache mc = make_cache(4);
  for (int i = 0; i < 8; ++i) mc.insert(0x10000 + static_cast<std::uint64_t>(i) * kPage, 1);
  EXPECT_EQ(mc.bound_count(), 4u);
  EXPECT_EQ(mc.evictions(), 4u);
  // The most recent four survive.
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(mc.contains(0x10000 + static_cast<std::uint64_t>(i) * kPage, 1)) << i;
  }
}

TEST(MessageCache, SnoopUpdatesBoundBuffer) {
  MessageCache mc = make_cache(4);
  mc.insert(0x10000, kPage);
  EXPECT_TRUE(mc.snoop_write(0x10020, 32));   // a flushed cache line within it
  EXPECT_FALSE(mc.snoop_write(0x90000, 32));  // unbound page: snoop aborted
  EXPECT_EQ(mc.snoop_updates(), 1u);
  // Snooping keeps the buffer valid (consistent), never invalidates it.
  EXPECT_TRUE(mc.lookup_tx(0x10000, kPage));
}

TEST(MessageCache, SnoopRefreshesReferenceBit) {
  MessageCache mc = make_cache(3);
  mc.insert(0x1000, 1);       // A
  mc.insert(0x2000, 1);       // B
  mc.insert(0x3000, 1);       // C
  mc.insert(0x4000, 1);       // evicts A, clears the other reference bits
  mc.snoop_write(0x2000, 8);  // the CPU keeps writing B: bit set by the snoop
  mc.insert(0x5000, 1);
  EXPECT_TRUE(mc.contains(0x2000, 1));   // survived: referenced by the snoop
  EXPECT_FALSE(mc.contains(0x3000, 1));  // the unreferenced one went
}

TEST(MessageCache, ReinsertExistingIsRefresh) {
  MessageCache mc = make_cache(2);
  mc.insert(0x1000, 1);
  mc.insert(0x1000, 1);
  EXPECT_EQ(mc.bound_count(), 1u);
  EXPECT_EQ(mc.evictions(), 0u);
}

TEST(MessageCache, ZeroLengthActsOnOnePage) {
  MessageCache mc = make_cache(2);
  mc.insert(0x1000, 0);
  EXPECT_TRUE(mc.contains(0x1000, 0));
  EXPECT_TRUE(mc.lookup_tx(0x1000, 0));
}

// Property: under any interleaving of inserts, bound_count never exceeds
// capacity and hits only ever follow inserts of the same page.
class McCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(McCapacitySweep, NeverExceedsCapacity) {
  const int buffers = GetParam();
  MessageCache mc = make_cache(static_cast<std::uint64_t>(buffers));
  for (std::uint64_t i = 0; i < 100; ++i) {
    mc.insert(0x10000 + (i * 2654435761u % 37) * kPage, 1);
    EXPECT_LE(mc.bound_count(), static_cast<std::size_t>(buffers));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, McCapacitySweep, ::testing::Values(1, 2, 8, 128));

}  // namespace
}  // namespace cni::core
