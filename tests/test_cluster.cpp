// Cluster assembly, host CPU accounting and run mechanics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "cluster/cluster.hpp"
#include "obs/report.hpp"

namespace cni::cluster {
namespace {

using apps::make_params;

TEST(SimParams, Table1Dump) {
  const std::string t = SimParams{}.to_table().to_string();
  EXPECT_NE(t.find("166 MHz"), std::string::npos);
  EXPECT_NE(t.find("32K unified"), std::string::npos);
  EXPECT_NE(t.find("Write-back"), std::string::npos);
  EXPECT_NE(t.find("25 MHz"), std::string::npos);
  EXPECT_NE(t.find("33 MHz"), std::string::npos);
  EXPECT_NE(t.find("500 ns"), std::string::npos);
  EXPECT_NE(t.find("32 KB"), std::string::npos);
}

TEST(Cluster, BuildsRequestedBoardKind) {
  Cluster cni(make_params(BoardKind::kCni, 2));
  [[maybe_unused]] auto& board = cni.node(0).cni();  // no check-fail: it is a CNI
  Cluster std_(make_params(BoardKind::kStandard, 2));
  EXPECT_DEATH({ [[maybe_unused]] auto& b = std_.node(0).cni(); }, "standard NIC");
}

TEST(Cluster, RejectsMoreNodesThanSwitchPorts) {
  SimParams p = make_params(BoardKind::kCni, 8);
  p.processors = 33;
  EXPECT_DEATH(Cluster{p}, "switch ports");
}

TEST(Cluster, RunReturnsMaxFinishTime) {
  Cluster cl(make_params(BoardKind::kCni, 3));
  const sim::SimTime elapsed = cl.run([&](std::size_t i, sim::SimThread& t) {
    t.delay((i + 1) * sim::kMillisecond);
  });
  EXPECT_EQ(elapsed, 3 * sim::kMillisecond);
  EXPECT_EQ(cl.elapsed_cpu_cycles(), sim::Clock(166'000'000).to_cycles(elapsed));
}

TEST(Cluster, DeadlockIsDiagnosed) {
  Cluster cl(make_params(BoardKind::kCni, 2));
  EXPECT_THROW(cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i == 1) t.block();  // nobody will ever wake node 1
  }),
               std::runtime_error);
}

// perfbench/worker.cpp reads the run's event count and engine mode through
// these names; they must report the one engine's count for the last run.
TEST(ParsimCluster, EpochStatsAreConsistent) {
  Cluster cl(make_params(BoardKind::kCni, 3));
  EXPECT_FALSE(cl.sharded());
  EXPECT_EQ(cl.shards(), 1u);
  EXPECT_EQ(cl.epoch_stats().events_total, 0u);
  cl.run([](std::size_t i, sim::SimThread& t) { t.delay((i + 1) * sim::kMillisecond); });
  EXPECT_GT(cl.epoch_stats().events_total, 0u);
  EXPECT_EQ(cl.epoch_stats().events_total, cl.engine().events_executed());

  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  const SimParams params = make_params(BoardKind::kCni, 4);
  const apps::RunResult r = apps::run_jacobi(params, config);
  EXPECT_GT(r.parsim.events_total, 0u);
  EXPECT_EQ(apps::run_jacobi(params, config).parsim.events_total, r.parsim.events_total)
      << "the event count is a property of the simulation";
}

/// Everything a run can observably produce, flattened to bytes.
std::string run_fingerprint(const SimParams& params, const apps::JacobiConfig& config) {
  double checksum = 0;
  const apps::RunResult r = apps::run_jacobi(params, config, &checksum);
  obs::ReportPoint point;
  point.label = "determinism";
  point.values.emplace_back("elapsed_cycles", static_cast<double>(r.elapsed_cycles));
  point.snapshot = r.snapshot;
  std::ostringstream out;
  out.precision(17);
  out << r.elapsed << '|' << r.elapsed_cycles << '|' << checksum << '|'
      << r.hit_ratio_pct << '|' << r.compute_e9 << '|' << r.overhead_e9 << '|'
      << r.delay_e9 << '\n';
  const std::vector<obs::ReportPoint> points = {point};
  out << obs::run_report_json("test_cluster", {{"app", "jacobi"}}, points);
  out << obs::chrome_trace_json(points);
  return std::move(out).str();
}

TEST(ParsimDeterminism, ConcurrentSweepPoolDoesNotPerturbResults) {
  // Four runs on a 4-worker sweep pool must reproduce the sequential
  // fingerprint exactly (each point builds its own cluster; the pool only
  // adds host-thread interleaving, which determinism must shrug off).
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  SimParams params = make_params(BoardKind::kCni, 4);
  params.obs.trace = true;  // trace export identity too
  const std::string expected = run_fingerprint(params, config);

  std::vector<std::string> got(4);
  apps::parallel_indexed(got.size(), 4, [&](std::size_t i) {
    got[i] = run_fingerprint(params, config);
  });
  for (const std::string& g : got) EXPECT_EQ(expected, g);
}

TEST(HostCpu, AccountingIdentity) {
  // compute + overhead + delay must equal each node's elapsed time.
  Cluster cl(make_params(BoardKind::kCni, 2));
  cl.run([&](std::size_t i, sim::SimThread& t) {
    auto& cpu = cl.node(i).cpu();
    cpu.compute(100'000);
    cpu.charge_overhead(t, 5'000);
    if (i == 0) t.delay(10 * sim::kMillisecond);  // pure stall
  });
  for (std::size_t i = 0; i < 2; ++i) {
    const sim::NodeStats& st = cl.stats().node(i);
    EXPECT_EQ(st.compute_cycles, 100'000u);
    EXPECT_EQ(st.synch_overhead_cycles, 5'000u);
  }
  // Node 0 stalled ~10 ms = ~1.66M cycles of delay.
  EXPECT_NEAR(static_cast<double>(cl.stats().node(0).synch_delay_cycles), 1.66e6, 2e4);
  EXPECT_EQ(cl.stats().node(1).synch_delay_cycles, 0u);
}

TEST(HostCpu, StolenCyclesSurfaceAtNextSync) {
  Cluster cl(make_params(BoardKind::kCni, 1));
  cl.run([&](std::size_t, sim::SimThread& t) {
    auto& cpu = cl.node(0).cpu();
    cpu.steal_cycles(50'000);  // e.g. an interrupt during computation
    EXPECT_EQ(cpu.stolen_pending(), 50'000u);
    const sim::SimTime before = t.engine().now();
    cpu.sync(t);
    const sim::SimTime after = t.engine().now();
    EXPECT_EQ(cpu.stolen_pending(), 0u);
    EXPECT_EQ(after - before, sim::Clock(166'000'000).cycles(50'000));
  });
  EXPECT_EQ(cl.stats().node(0).synch_overhead_cycles, 50'000u);
}

TEST(HostCpu, FlushBufferPutsDirtyLinesOnTheBus) {
  Cluster cl(make_params(BoardKind::kCni, 1));
  cl.run([&](std::size_t, sim::SimThread& t) {
    auto& cpu = cl.node(0).cpu();
    std::uint64_t writes_before = cpu.bus().cpu_writes();
    for (int w = 0; w < 64; ++w) cpu.mem_access(mem::kSharedBase + w * 8, true);
    cpu.sync(t);
    const std::uint64_t cycles = cpu.flush_buffer(mem::kSharedBase, 512);
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(cpu.bus().cpu_writes(), writes_before);
    // Second flush: nothing dirty left.
    EXPECT_LT(cpu.flush_buffer(mem::kSharedBase, 512), cycles);
  });
}

TEST(Cluster, StatsNodeCountMatches) {
  Cluster cl(make_params(BoardKind::kStandard, 5));
  EXPECT_EQ(cl.stats().node_count(), 5u);
  EXPECT_EQ(cl.size(), 5u);
}

TEST(NodeStats, HitRatioDefinition) {
  sim::NodeStats st;
  // No lookups: no ratio to report. Callers that care distinguish "no cache
  // activity" from "0% hit rate" via has_lookups().
  EXPECT_FALSE(st.has_lookups());
  EXPECT_DOUBLE_EQ(st.tx_hit_ratio_pct(), 0.0);
  st.mcache_tx_lookups = 8;
  st.mcache_tx_hits = 6;
  EXPECT_TRUE(st.has_lookups());
  EXPECT_DOUBLE_EQ(st.tx_hit_ratio_pct(), 75.0);
}

TEST(NodeStats, AddAggregates) {
  sim::NodeStats a;
  a.compute_cycles = 5;
  a.messages_sent = 2;
  sim::NodeStats b;
  b.compute_cycles = 7;
  b.messages_sent = 1;
  a.add(b);
  EXPECT_EQ(a.compute_cycles, 12u);
  EXPECT_EQ(a.messages_sent, 3u);
}

}  // namespace
}  // namespace cni::cluster
