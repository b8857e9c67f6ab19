#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>

#include "apps/runner.hpp"
#include "obs/options.hpp"
#include "util/cli.hpp"
#include "util/flat_map.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cni::util {
namespace {

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div(0u, 48u), 0u);
  EXPECT_EQ(ceil_div(1u, 48u), 1u);
  EXPECT_EQ(ceil_div(48u, 48u), 1u);
  EXPECT_EQ(ceil_div(49u, 48u), 2u);
  EXPECT_EQ(ceil_div(4096u, 48u), 86u);  // the paper's 4 KB page in ATM cells
}

TEST(Units, AlignAndPow2) {
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Units, Literals) {
  EXPECT_EQ(32_KiB, 32768u);
  EXPECT_EQ(1_MiB, 1048576u);
}

TEST(Rng, DeterministicStream) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DoubleInRange) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double(-1.0, 1.0);
    EXPECT_GE(d, -1.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BelowBound) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Table, FormatsAligned) {
  Table t("Demo");
  t.set_header({"name", "x"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Numeric column right-aligned: " 1" and "22" line up.
  EXPECT_NE(s.find(" 1\n"), std::string::npos);
  EXPECT_NE(s.find("22\n"), std::string::npos);
}

TEST(Table, DoubleRows) {
  Table t("D");
  t.add_row("row", {1.5, 100.0}, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5000, 4), "1.5");
  EXPECT_EQ(format_double(100.0, 2), "100");
  EXPECT_EQ(format_double(0.054, 4), "0.054");
  EXPECT_EQ(format_double(13.31, 2), "13.31");
}

TEST(ParseU32, TakesDecimalDigitsThatFitOnly) {
  EXPECT_EQ(parse_u32("0"), 0u);
  EXPECT_EQ(parse_u32("4096"), 4096u);
  EXPECT_EQ(parse_u32("007"), 7u);
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  for (const char* bad : {"", "abc", "3x", "x3", "-1", "+1", " 1", "1 ", "0x10", "1.5",
                          "4294967296", "99999999999999999999"}) {
    EXPECT_EQ(parse_u32(bad), std::nullopt) << "'" << bad << "'";
  }
}

/// Sets an environment variable for one scope, then restores its old state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// Every CNI_* variable goes through env_value: a value it does not take
// aborts naming the variable and what it takes, instead of running the
// default. Logger and obs::default_options() cache their first read for the
// whole process, so their tests run the death statement in a freshly
// started copy of this binary ("threadsafe" style) rather than a fork that
// would inherit a value an earlier test already cached.
using EnvValueDeathTest = ::testing::Test;

TEST_F(EnvValueDeathTest, CountsTakeTheirRangeAndFlagsTakeZeroOrOne) {
  EXPECT_EQ(env_count("CNI_TEST_UNSET_VARIABLE", 1), std::nullopt);
  EXPECT_EQ(env_flag("CNI_TEST_UNSET_VARIABLE"), std::nullopt);
  {
    const ScopedEnv env("CNI_TEST_VALUE", "4");
    EXPECT_EQ(env_count("CNI_TEST_VALUE", 0, 4), 4u);
    EXPECT_DEATH((void)env_count("CNI_TEST_VALUE", 0, 3),
                 "CNI_TEST_VALUE must be a count from 0 to 3, not '4'");
  }
  for (const char* bad : {"", "4x", " 4", "-1", "0x4"}) {
    const ScopedEnv env("CNI_TEST_VALUE", bad);
    EXPECT_DEATH((void)env_count("CNI_TEST_VALUE", 1), "CNI_TEST_VALUE must be a count >= 1")
        << "'" << bad << "'";
  }
  for (const char* good : {"0", "1"}) {
    const ScopedEnv env("CNI_TEST_VALUE", good);
    EXPECT_EQ(env_flag("CNI_TEST_VALUE"), good[0] == '1');
  }
  for (const char* bad : {"", "01", "2", "no", "off", "true"}) {
    const ScopedEnv env("CNI_TEST_VALUE", bad);
    EXPECT_DEATH((void)env_flag("CNI_TEST_VALUE"), "CNI_TEST_VALUE must be 0 or 1")
        << "'" << bad << "'";
  }
}

TEST_F(EnvValueDeathTest, BenchJobsTakesACountOfAtLeastOne) {
  {
    const ScopedEnv env("CNI_BENCH_JOBS", "3");
    EXPECT_EQ(apps::sweep_jobs(), 3u);
  }
  for (const char* bad : {"abc", "0", "4x"}) {
    const ScopedEnv env("CNI_BENCH_JOBS", bad);
    EXPECT_DEATH((void)apps::sweep_jobs(),
                 std::string("CNI_BENCH_JOBS must be a count >= 1, not '") + bad + "'");
  }
}

TEST_F(EnvValueDeathTest, BenchFastTakesZeroOrOne) {
  // bench::fast_mode() is env_flag("CNI_BENCH_FAST"); the bench_rejects_fast_no
  // ctest runs a bench binary under CNI_BENCH_FAST=no.
  const ScopedEnv env("CNI_BENCH_FAST", "no");
  EXPECT_DEATH((void)env_flag("CNI_BENCH_FAST"), "CNI_BENCH_FAST must be 0 or 1, not 'no'");
}

TEST_F(EnvValueDeathTest, TraceTakesZeroOrOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedEnv env("CNI_TRACE", "off");
  EXPECT_DEATH((void)obs::default_options(), "CNI_TRACE must be 0 or 1, not 'off'");
}

TEST_F(EnvValueDeathTest, TraceCapacityTakesACountOfAtLeastOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"0", "abc"}) {
    const ScopedEnv env("CNI_TRACE_CAPACITY", bad);
    EXPECT_DEATH((void)obs::default_options(),
                 std::string("CNI_TRACE_CAPACITY must be a count >= 1, not '") + bad + "'");
  }
}

TEST_F(EnvValueDeathTest, LogLevelTakesZeroToFour) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"debug", "5"}) {
    const ScopedEnv env("CNI_LOG_LEVEL", bad);
    EXPECT_DEATH((void)Logger::level(),
                 std::string("CNI_LOG_LEVEL must be a count from 0 to 4, not '") + bad + "'");
  }
}

TEST_F(EnvValueDeathTest, LogJsonTakesZeroOrOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedEnv env("CNI_LOG_JSON", "yes");
  EXPECT_DEATH((void)Logger::json(), "CNI_LOG_JSON must be 0 or 1, not 'yes'");
}

TEST(U64FlatMap, InsertFindEraseBasics) {
  U64FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);
  m.insert(7, 70);
  m.insert(9, 90);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  m.insert(7, 71);  // overwrite, not duplicate
  EXPECT_EQ(*m.find(7), 71);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(*m.find(9), 90);
}

TEST(U64FlatMap, MatchesReferenceMapUnderRandomChurn) {
  // The backward-shift erase is the delicate part: hammer it with a random
  // insert/erase mix (clustered keys force long probe chains) and compare
  // against std::unordered_map after every growth-triggering batch.
  SplitMix64 rng(11);
  U64FlatMap<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(512);  // small space: collisions
    if (rng.next_below(3) != 0) {
      const std::uint64_t val = rng.next();
      m.insert(key, val);
      ref[key] = val;
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v);
  }
  std::size_t walked = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++walked;
    EXPECT_EQ(ref.at(k), v);
  });
  EXPECT_EQ(walked, ref.size());
}

TEST(U64FlatMap, NeverFilledMapAnswersEverything) {
  // A map allocates its slots at the first insert. Until then every call
  // must answer without hashing (its shift is still 64, which no probe may
  // use), and a drained map must answer the same way.
  U64FlatMap<int> m;
  const U64FlatMap<int>& cm = m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(cm.find(3), nullptr);
  EXPECT_FALSE(cm.contains(3));
  EXPECT_FALSE(m.erase(3));
  std::size_t walked = 0;
  m.for_each([&walked](std::uint64_t, int) { ++walked; });
  EXPECT_EQ(walked, 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  m.insert(3, 30);
  EXPECT_EQ(*m.find(3), 30);
  EXPECT_TRUE(m.erase(3));
  EXPECT_EQ(m.find(3), nullptr);  // drained: answered without a probe
  EXPECT_FALSE(m.erase(3));
  m.insert(4, 40);
  EXPECT_EQ(*m.find(4), 40);
}

}  // namespace
}  // namespace cni::util
