#include <gtest/gtest.h>

#include <cstring>

#include "core/pathfinder.hpp"

namespace cni::core {
namespace {

std::vector<std::byte> header_bytes(std::uint16_t type, std::uint32_t extra = 0) {
  std::vector<std::byte> h(24, std::byte{0});
  std::memcpy(h.data(), &type, 2);
  std::memcpy(h.data() + 8, &extra, 4);
  return h;
}

Pattern type_pattern(std::uint16_t type, std::uint32_t target) {
  Pattern p;
  p.comparisons.push_back(Comparison{0, 0xFFFF, type});
  p.target = target;
  return p;
}

TEST(Pathfinder, MatchesByHeaderBytes) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  const auto h = header_bytes(0x0202);
  const auto r = pf.classify(h, FlowKey{0, 1, 1}, 1);
  EXPECT_TRUE(r.matched);
  EXPECT_EQ(r.target, 2u);
  EXPECT_FALSE(r.via_dynamic);
}

TEST(Pathfinder, CostCountsComparisonsExamined) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  pf.add_pattern(type_pattern(0x0203, 3));
  // Matching the third pattern examines all three comparisons.
  const auto r = pf.classify(header_bytes(0x0203), FlowKey{0, 1, 1}, 1);
  EXPECT_EQ(r.comparisons, 3u);
  // Matching the first examines one.
  const auto r1 = pf.classify(header_bytes(0x0201), FlowKey{0, 1, 2}, 1);
  EXPECT_EQ(r1.comparisons, 1u);
}

TEST(Pathfinder, PriorityIsInstallationOrder) {
  Pathfinder pf;
  // Two overlapping patterns: the earlier installation wins.
  Pattern loose;
  loose.comparisons.push_back(Comparison{0, 0x00FF, 0x01});
  loose.target = 7;
  pf.add_pattern(loose);
  pf.add_pattern(type_pattern(0x0201, 9));
  const auto r = pf.classify(header_bytes(0x0201), FlowKey{0, 1, 1}, 1);
  EXPECT_EQ(r.target, 7u);
}

TEST(Pathfinder, MultiComparisonPattern) {
  Pattern p;
  p.comparisons.push_back(Comparison{0, 0xFFFF, 0x0300});
  p.comparisons.push_back(Comparison{8, 0xFFFFFFFF, 0xabcd});
  p.target = 5;
  Pathfinder pf;
  pf.add_pattern(p);
  EXPECT_TRUE(pf.classify(header_bytes(0x0300, 0xabcd), FlowKey{0, 1, 1}, 1).matched);
  EXPECT_FALSE(pf.classify(header_bytes(0x0300, 0x1111), FlowKey{0, 1, 2}, 1).matched);
}

TEST(Pathfinder, FragmentsResolveThroughDynamicPattern) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  // An 86-cell page transfer: full match once + 85 one-comparison fragments.
  const auto r = pf.classify(header_bytes(0x0202), FlowKey{3, 1, 42}, 86);
  EXPECT_TRUE(r.matched);
  EXPECT_EQ(r.comparisons, 2u + 85u);
  EXPECT_EQ(pf.dynamic_hits(), 85u);
}

TEST(Pathfinder, PreinstalledDynamicBindingShortCircuits) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  const FlowKey flow{1, 1, 99};
  pf.install_dynamic(flow, 1);
  const auto r = pf.classify(header_bytes(0x0201), flow, 4);
  EXPECT_TRUE(r.via_dynamic);
  EXPECT_EQ(r.comparisons, 4u);  // one per fragment
  // The binding is consumed with the packet.
  const auto r2 = pf.classify(header_bytes(0x0201), flow, 1);
  EXPECT_FALSE(r2.via_dynamic);
}

TEST(Pathfinder, RemovePattern) {
  Pathfinder pf;
  const auto id = pf.add_pattern(type_pattern(0x0201, 1));
  EXPECT_EQ(pf.pattern_count(), 1u);
  pf.remove_pattern(id);
  EXPECT_EQ(pf.pattern_count(), 0u);
  EXPECT_FALSE(pf.classify(header_bytes(0x0201), FlowKey{0, 1, 1}, 1).matched);
}

TEST(Pathfinder, RemovingAMiddlePatternKeepsTheLaterOnes) {
  // Patterns share one comparison array: removing one in the middle moves
  // the later patterns' comparisons down, and they must keep their matches
  // and costs.
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  Pattern two;
  two.comparisons = {Comparison{0, 0xFFFF, 0x0300}, Comparison{8, 0xFFFFFFFF, 0xabcd}};
  two.target = 2;
  const auto middle = pf.add_pattern(two);
  Pattern three;
  three.comparisons = {Comparison{0, 0xFFFF, 0x0400}, Comparison{8, 0xFFFFFFFF, 0x1234},
                       Comparison{12, 0xFFFFFFFF, 0}};
  three.target = 3;
  const auto third = pf.add_pattern(three);
  pf.add_pattern(type_pattern(0x0202, 4));

  auto r = pf.classify(header_bytes(0x0400, 0x1234), FlowKey{0, 1, 1}, 1);
  EXPECT_EQ(r.target, 3u);
  EXPECT_EQ(r.comparisons, 1u + 1u + 3u);
  r = pf.classify(header_bytes(0x0400, 0x9999), FlowKey{0, 1, 2}, 1);  // fails at 2 of 3
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 1u + 1u + 2u + 1u);

  pf.remove_pattern(middle);
  EXPECT_EQ(pf.pattern_count(), 3u);
  r = pf.classify(header_bytes(0x0400, 0x1234), FlowKey{0, 1, 3}, 1);
  EXPECT_EQ(r.target, 3u);
  EXPECT_EQ(r.comparisons, 1u + 3u);
  r = pf.classify(header_bytes(0x0400, 0x9999), FlowKey{0, 1, 4}, 1);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 1u + 2u + 1u);
  r = pf.classify(header_bytes(0x0202), FlowKey{0, 1, 5}, 1);
  EXPECT_EQ(r.target, 4u);
  EXPECT_EQ(r.comparisons, 1u + 1u + 1u);
  r = pf.classify(header_bytes(0x0300, 0xabcd), FlowKey{0, 1, 6}, 1);  // gone
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 3u);

  // The shifted pattern is still removable by its id, and one added after
  // the removal lands last.
  pf.remove_pattern(third);
  pf.add_pattern(two);
  r = pf.classify(header_bytes(0x0300, 0xabcd), FlowKey{0, 1, 7}, 1);
  EXPECT_EQ(r.target, 2u);
  EXPECT_EQ(r.comparisons, 1u + 1u + 2u);
}

TEST(Pathfinder, NoMatchExaminesEverything) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  const auto r = pf.classify(header_bytes(0x0777), FlowKey{0, 1, 1}, 1);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 2u);
}

TEST(Pathfinder, ShortHeadersReadAsZeroPadded) {
  Pattern p;
  p.comparisons.push_back(Comparison{100, ~0ull, 0});  // beyond the header
  p.target = 1;
  Pathfinder pf;
  pf.add_pattern(p);
  EXPECT_TRUE(pf.classify(header_bytes(0x1), FlowKey{0, 1, 1}, 1).matched);
}

TEST(Pathfinder, MatchesHelper) {
  const Pattern p = type_pattern(0x0201, 1);
  EXPECT_TRUE(Pathfinder::matches(p, header_bytes(0x0201)));
  EXPECT_FALSE(Pathfinder::matches(p, header_bytes(0x0202)));
}

// Regression for the dynamic table's move to util::U64FlatMap keyed on
// FlowKey::packed(): flows differing in any single field must never alias,
// and consuming one flow's binding must leave the others intact.
TEST(Pathfinder, PackedFlowKeysNeverAlias) {
  const FlowKey base{3, 7, 1000};
  const FlowKey other_src{4, 7, 1000};
  const FlowKey other_vci{3, 8, 1000};
  const FlowKey other_seq{3, 7, 1001};
  EXPECT_NE(base.packed(), other_src.packed());
  EXPECT_NE(base.packed(), other_vci.packed());
  EXPECT_NE(base.packed(), other_seq.packed());
  // Field values that could collide under a naive shift/xor mix: (src=1,
  // vci=0) vs (src=0, vci=1<<16) is impossible since vci is checked to 16
  // bits, but (src,seq) and (vci,seq) swaps must stay distinct.
  EXPECT_NE((FlowKey{1, 2, 3}).packed(), (FlowKey{2, 1, 3}).packed());
  EXPECT_NE((FlowKey{0, 5, 6}).packed(), (FlowKey{5, 0, 6}).packed());

  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.install_dynamic(base, 10);
  pf.install_dynamic(other_src, 20);
  pf.install_dynamic(other_seq, 30);

  const auto r = pf.classify(header_bytes(0x0201), base, 2);
  EXPECT_TRUE(r.via_dynamic);
  EXPECT_EQ(r.target, 10u);
  // base's binding is consumed; the neighbours must still resolve dynamic.
  EXPECT_FALSE(pf.classify(header_bytes(0x0201), base, 1).via_dynamic);
  const auto r2 = pf.classify(header_bytes(0x0201), other_src, 1);
  EXPECT_TRUE(r2.via_dynamic);
  EXPECT_EQ(r2.target, 20u);
  const auto r3 = pf.classify(header_bytes(0x0201), other_seq, 1);
  EXPECT_TRUE(r3.via_dynamic);
  EXPECT_EQ(r3.target, 30u);
}

}  // namespace
}  // namespace cni::core
