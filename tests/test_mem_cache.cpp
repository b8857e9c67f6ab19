#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "heap_calls.hpp"
#include "mem/cache.hpp"
#include "util/rng.hpp"

namespace cni::mem {
namespace {

CacheParams small_params() {
  CacheParams p;
  p.l1_size = 256;
  p.l2_size = 1024;
  p.line_size = 32;
  return p;
}

TEST(CacheModel, ColdMissThenHit) {
  CacheModel c(small_params());
  const CacheAccess miss = c.access(0x1000, false);
  EXPECT_FALSE(miss.l1_hit);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_EQ(miss.cpu_cycles, 10u + 20u);  // L2 probe + memory
  const CacheAccess hit = c.access(0x1000, false);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.cpu_cycles, 1u);
}

TEST(CacheModel, SameLineSharesEntry) {
  CacheModel c(small_params());
  c.access(0x1000, false);
  EXPECT_TRUE(c.access(0x101F, false).l1_hit);   // same 32-byte line
  EXPECT_FALSE(c.access(0x1020, false).l1_hit);  // next line
}

TEST(CacheModel, L2CatchesL1Conflicts) {
  CacheModel c(small_params());
  // 0x0 and 0x100 conflict in a 256-byte direct-mapped L1 but not in L2.
  c.access(0x000, false);
  c.access(0x100, false);
  const CacheAccess a = c.access(0x000, false);
  EXPECT_FALSE(a.l1_hit);
  EXPECT_TRUE(a.l2_hit);
  EXPECT_EQ(a.cpu_cycles, 10u);
}

TEST(CacheModel, DirtyEvictionReachesTheBus) {
  CacheModel c(small_params());
  c.access(0x0000, true);  // dirty line at L1/L2 index 0
  // Conflict in both levels (l2_size = 1024): line 0x0000 evicted dirty.
  const CacheAccess a = c.access(0x0400, false);
  EXPECT_TRUE(a.wrote_back);
  EXPECT_EQ(a.writeback_line, 0x0000u);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheModel, CleanEvictionSilent) {
  CacheModel c(small_params());
  c.access(0x0000, false);  // clean
  const CacheAccess a = c.access(0x0400, false);
  EXPECT_FALSE(a.wrote_back);
}

TEST(CacheModel, WriteThroughAnnouncesEveryStore) {
  CacheParams p = small_params();
  p.write_back = false;
  CacheModel c(p);
  const CacheAccess w1 = c.access(0x40, true);
  EXPECT_TRUE(w1.bus_write);
  const CacheAccess w2 = c.access(0x40, true);
  EXPECT_TRUE(w2.l1_hit);
  EXPECT_TRUE(w2.bus_write);  // write-through: the bus sees every store
}

TEST(CacheModel, FlushRangeWritesBackDirtyLines) {
  CacheModel c(small_params());
  c.access(0x1000, true);
  c.access(0x1020, true);
  c.access(0x1040, false);  // clean
  std::uint64_t cycles = 0;
  const auto lines = c.flush_range(0x1000, 0x60, &cycles);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x1000u);
  EXPECT_EQ(lines[1], 0x1020u);
  EXPECT_GT(cycles, 0u);
  // After the flush the lines are clean: flushing again writes nothing.
  std::uint64_t cycles2 = 0;
  EXPECT_TRUE(c.flush_range(0x1000, 0x60, &cycles2).empty());
  // ... but they are still cached (flush != invalidate).
  EXPECT_TRUE(c.access(0x1000, false).l1_hit);
}

TEST(CacheModel, InvalidateRangeDropsLines) {
  CacheModel c(small_params());
  c.access(0x1000, false);
  c.invalidate_range(0x1000, 32);
  EXPECT_FALSE(c.access(0x1000, false).l1_hit);
}

TEST(CacheModel, FlushEmptyRangeIsNoop) {
  CacheModel c(small_params());
  std::uint64_t cycles = 0;
  EXPECT_TRUE(c.flush_range(0x1000, 0, &cycles).empty());
  EXPECT_EQ(cycles, 0u);
}

// Property sweep: for any line size, repeated access to the same addresses
// never misses, and the hit counters add up.
class CacheLineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheLineSweep, SteadyStateHits) {
  CacheParams p;
  p.l1_size = 4096;
  p.l2_size = 16384;
  p.line_size = GetParam();
  CacheModel c(p);
  for (int round = 0; round < 3; ++round) {
    for (PAddr a = 0; a < 2048; a += 8) c.access(a, round == 0);
  }
  // Rounds 2 and 3 hit entirely in L1 (working set 2 KB < 4 KB L1).
  const std::uint64_t accesses_per_round = 2048 / 8;
  EXPECT_EQ(c.l1_hits(), 2 * accesses_per_round + (accesses_per_round -
                                                   2048 / p.line_size));
  EXPECT_EQ(c.accesses(), 3 * accesses_per_round);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, CacheLineSweep, ::testing::Values(16, 32, 64, 128));

// The struct-per-line model CacheModel's packed encoding replaced, kept as
// the reference the differential test below drives in lockstep with it.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheParams& p)
      : params_(p), l1_(p.l1_size / p.line_size), l2_(p.l2_size / p.line_size) {}

  CacheAccess access(PAddr addr, bool is_write) {
    ++accesses_;
    CacheAccess r;
    const PAddr line = line_addr(addr);
    Line& e1 = l1_[l1_index(line)];
    const bool write_through = !params_.write_back;
    if (e1.valid && e1.tag == line) {
      ++l1_hits_;
      r.l1_hit = true;
      r.cpu_cycles = params_.l1_latency_cycles;
      if (is_write) {
        if (write_through) {
          r.bus_write = true;
          r.bus_write_line = line;
        } else {
          e1.dirty = true;
        }
      }
      return r;
    }
    Line& e2 = l2_[l2_index(line)];
    if (e2.valid && e2.tag == line) {
      ++l2_hits_;
      r.l2_hit = true;
      r.cpu_cycles = params_.l2_latency_cycles;
    } else {
      r.cpu_cycles = params_.l2_latency_cycles + params_.memory_latency_cycles;
      if (e2.valid && e2.dirty) {
        ++writebacks_;
        r.wrote_back = true;
        r.writeback_line = e2.tag;
      }
      e2.valid = true;
      e2.dirty = false;
      e2.tag = line;
    }
    if (e1.valid && e1.dirty) {
      Line& v2 = l2_[l2_index(e1.tag)];
      if (v2.valid && v2.tag == e1.tag) {
        v2.dirty = true;
      } else {
        ++writebacks_;
        if (!r.wrote_back) {
          r.wrote_back = true;
          r.writeback_line = e1.tag;
        }
      }
    }
    e1.valid = true;
    e1.dirty = false;
    e1.tag = line;
    if (is_write) {
      if (write_through) {
        r.bus_write = true;
        r.bus_write_line = line;
      } else {
        e1.dirty = true;
      }
    }
    return r;
  }

  std::vector<PAddr> flush_range(PAddr addr, std::uint64_t len, std::uint64_t* cycles) {
    std::vector<PAddr> flushed;
    if (len == 0) return flushed;
    std::uint64_t cost = 0;
    for (PAddr line = line_addr(addr); line <= line_addr(addr + len - 1);
         line += params_.line_size) {
      cost += params_.l1_latency_cycles;
      bool dirty = false;
      for (Line* e : {&l1_[l1_index(line)], &l2_[l2_index(line)]}) {
        if (e->valid && e->tag == line && e->dirty) {
          e->dirty = false;
          dirty = true;
        }
      }
      if (dirty) {
        ++writebacks_;
        cost += params_.l2_latency_cycles;
        flushed.push_back(line);
      }
    }
    *cycles += cost;
    return flushed;
  }

  void invalidate_range(PAddr addr, std::uint64_t len) {
    if (len == 0) return;
    for (PAddr line = line_addr(addr); line <= line_addr(addr + len - 1);
         line += params_.line_size) {
      for (Line* e : {&l1_[l1_index(line)], &l2_[l2_index(line)]}) {
        if (e->valid && e->tag == line) e->valid = false;
      }
    }
  }

  std::uint64_t accesses_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t writebacks_ = 0;

 private:
  struct Line {
    PAddr tag = 0;
    bool valid = false;
    bool dirty = false;
  };
  [[nodiscard]] PAddr line_addr(PAddr a) const { return a & ~(params_.line_size - 1); }
  [[nodiscard]] std::size_t l1_index(PAddr line) const {
    return (line / params_.line_size) % l1_.size();
  }
  [[nodiscard]] std::size_t l2_index(PAddr line) const {
    return (line / params_.line_size) % l2_.size();
  }

  CacheParams params_;
  std::vector<Line> l1_;
  std::vector<Line> l2_;
};

void expect_same(const CacheAccess& got, const CacheAccess& want, int op) {
  EXPECT_EQ(got.cpu_cycles, want.cpu_cycles) << "op " << op;
  EXPECT_EQ(got.l1_hit, want.l1_hit) << "op " << op;
  EXPECT_EQ(got.l2_hit, want.l2_hit) << "op " << op;
  EXPECT_EQ(got.wrote_back, want.wrote_back) << "op " << op;
  EXPECT_EQ(got.writeback_line, want.writeback_line) << "op " << op;
  EXPECT_EQ(got.bus_write, want.bus_write) << "op " << op;
  EXPECT_EQ(got.bus_write_line, want.bus_write_line) << "op " << op;
}

void expect_same_counters(const CacheModel& got, const ReferenceCache& want) {
  EXPECT_EQ(got.accesses(), want.accesses_);
  EXPECT_EQ(got.l1_hits(), want.l1_hits_);
  EXPECT_EQ(got.l2_hits(), want.l2_hits_);
  EXPECT_EQ(got.writebacks(), want.writebacks_);
}

struct Geometry {
  std::uint64_t line_size;
  bool write_back;
};

void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.line_size << (g.write_back ? "B write-back" : "B write-through");
}

// Differential property: the packed model and the reference agree on every
// access result, every flush (line list and cycles) and every counter, over
// a long seeded mix of loads, stores, flushes and invalidations. L1 and L2
// are tiny and the address pool spans 4 L2 sizes, so L1 conflicts, L2
// conflicts, dirty victims whose L2 copy is gone and refills of invalidated
// dirty lines all occur thousands of times. The reference allocates both
// levels up front and the model at its first miss, so fresh models are
// also driven through their first calls.
class CacheDifferential : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheDifferential, PackedModelMatchesReference) {
  CacheParams p;
  p.line_size = GetParam().line_size;
  p.l1_size = 8 * p.line_size;
  p.l2_size = 32 * p.line_size;
  p.write_back = GetParam().write_back;
  CacheModel got(p);
  ReferenceCache want(p);
  util::SplitMix64 rng(0xC0FFEE + p.line_size + (p.write_back ? 1 : 0));
  const std::uint64_t span = 4 * p.l2_size;
  const PAddr base = 0x10000;

  // A fresh model whose very first call is an access: its one-line
  // sentinel misses, and the first miss builds the state the reference
  // starts in.
  {
    CacheModel fresh(p);
    ReferenceCache fresh_want(p);
    // A store, an L1 conflict that folds the dirty line into L2, an L2 hit
    // that brings it back, and an L1 hit.
    const PAddr conflict = base + p.l1_size;
    expect_same(fresh.access(base, true), fresh_want.access(base, true), -6);
    expect_same(fresh.access(conflict, false), fresh_want.access(conflict, false), -5);
    expect_same(fresh.access(base, false), fresh_want.access(base, false), -4);
    expect_same(fresh.access(base, true), fresh_want.access(base, true), -3);
    expect_same_counters(fresh, fresh_want);
  }

  // Before the first miss there are no tables: flush and invalidate must
  // still charge the probes, find nothing and allocate nothing.
  std::uint64_t got_cycles = 0;
  std::uint64_t want_cycles = 0;
  std::vector<PAddr> flushed;
  {
    const test_support::HeapCalls calls;
    flushed = got.flush_range(base, span, &got_cycles);
    got.invalidate_range(base, span);
    EXPECT_EQ(calls.news(), 0u);
  }
  EXPECT_EQ(flushed, want.flush_range(base, span, &want_cycles));
  EXPECT_EQ(got_cycles, want_cycles);
  want.invalidate_range(base, span);

  // A dirty line dropped by invalidation is refilled clean: no write-back.
  expect_same(got.access(base, true), want.access(base, true), -2);
  got.invalidate_range(base, 1);
  want.invalidate_range(base, 1);
  expect_same(got.access(base, false), want.access(base, false), -1);

  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    const PAddr addr = base + rng.next_below(span);
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 90) {
      const bool is_write = kind < 40;
      expect_same(got.access(addr, is_write), want.access(addr, is_write), op);
    } else if (kind < 96) {
      const std::uint64_t len = rng.next_below(4 * p.line_size);
      got_cycles = 0;
      want_cycles = 0;
      EXPECT_EQ(got.flush_range(addr, len, &got_cycles),
                want.flush_range(addr, len, &want_cycles))
          << "op " << op;
      EXPECT_EQ(got_cycles, want_cycles) << "op " << op;
    } else {
      const std::uint64_t len = rng.next_below(4 * p.line_size);
      got.invalidate_range(addr, len);
      want.invalidate_range(addr, len);
    }
    if (::testing::Test::HasFailure()) break;
  }
  expect_same_counters(got, want);
  EXPECT_GT(want.l2_hits_, 0u);
  if (p.write_back) {
    EXPECT_GT(want.writebacks_, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{16, true}, Geometry{32, true}, Geometry{64, true},
                      Geometry{128, true}, Geometry{16, false}, Geometry{32, false},
                      Geometry{64, false}, Geometry{128, false}),
    [](const ::testing::TestParamInfo<Geometry>& param_info) {
      return std::to_string(param_info.param.line_size) +
             (param_info.param.write_back ? "B_write_back" : "B_write_through");
    });

}  // namespace
}  // namespace cni::mem
