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
  const auto r = pf.classify(h, 1);
  EXPECT_TRUE(r.matched);
  EXPECT_EQ(r.target, 2u);
}

TEST(Pathfinder, CostCountsComparisonsExamined) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  pf.add_pattern(type_pattern(0x0203, 3));
  // Matching the third pattern examines all three comparisons.
  const auto r = pf.classify(header_bytes(0x0203), 1);
  EXPECT_EQ(r.comparisons, 3u);
  // Matching the first examines one.
  const auto r1 = pf.classify(header_bytes(0x0201), 1);
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
  const auto r = pf.classify(header_bytes(0x0201), 1);
  EXPECT_EQ(r.target, 7u);
}

TEST(Pathfinder, MultiComparisonPattern) {
  Pattern p;
  p.comparisons.push_back(Comparison{0, 0xFFFF, 0x0300});
  p.comparisons.push_back(Comparison{8, 0xFFFFFFFF, 0xabcd});
  p.target = 5;
  Pathfinder pf;
  pf.add_pattern(p);
  EXPECT_TRUE(pf.classify(header_bytes(0x0300, 0xabcd), 1).matched);
  EXPECT_FALSE(pf.classify(header_bytes(0x0300, 0x1111), 1).matched);
}

TEST(Pathfinder, FragmentsCostOneComparisonEach) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  // An 86-cell page transfer: full match once + 85 one-comparison fragments.
  const auto r = pf.classify(header_bytes(0x0202), 86);
  EXPECT_TRUE(r.matched);
  EXPECT_EQ(r.target, 2u);
  EXPECT_EQ(r.comparisons, 2u + 85u);
  // A packet that matches nothing is charged its walk only.
  const auto miss = pf.classify(header_bytes(0x0777), 86);
  EXPECT_FALSE(miss.matched);
  EXPECT_EQ(miss.comparisons, 2u);
}

TEST(Pathfinder, MultiComparisonPatternsShareOneArray) {
  // Patterns' comparisons sit back to back in one array: each pattern must
  // walk exactly its own, and a failed pattern's cost stops at the first
  // comparison that fails.
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  Pattern two;
  two.comparisons = {Comparison{0, 0xFFFF, 0x0300}, Comparison{8, 0xFFFFFFFF, 0xabcd}};
  two.target = 2;
  pf.add_pattern(two);
  Pattern three;
  three.comparisons = {Comparison{0, 0xFFFF, 0x0400}, Comparison{8, 0xFFFFFFFF, 0x1234},
                       Comparison{12, 0xFFFFFFFF, 0}};
  three.target = 3;
  pf.add_pattern(three);
  pf.add_pattern(type_pattern(0x0202, 4));
  EXPECT_EQ(pf.pattern_count(), 4u);

  auto r = pf.classify(header_bytes(0x0400, 0x1234), 1);
  EXPECT_EQ(r.target, 3u);
  EXPECT_EQ(r.comparisons, 1u + 1u + 3u);
  r = pf.classify(header_bytes(0x0400, 0x9999), 1);  // fails at 2 of 3
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 1u + 1u + 2u + 1u);
  r = pf.classify(header_bytes(0x0300, 0xabcd), 1);
  EXPECT_EQ(r.target, 2u);
  EXPECT_EQ(r.comparisons, 1u + 2u);
  r = pf.classify(header_bytes(0x0202), 1);
  EXPECT_EQ(r.target, 4u);
  EXPECT_EQ(r.comparisons, 1u + 1u + 1u + 1u);
}

TEST(Pathfinder, NoMatchExaminesEverything) {
  Pathfinder pf;
  pf.add_pattern(type_pattern(0x0201, 1));
  pf.add_pattern(type_pattern(0x0202, 2));
  const auto r = pf.classify(header_bytes(0x0777), 1);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.comparisons, 2u);
}

TEST(Pathfinder, ShortHeadersReadAsZeroPadded) {
  Pattern p;
  p.comparisons.push_back(Comparison{100, ~0ull, 0});  // beyond the header
  p.target = 1;
  Pathfinder pf;
  pf.add_pattern(p);
  EXPECT_TRUE(pf.classify(header_bytes(0x1), 1).matched);
}

}  // namespace
}  // namespace cni::core
