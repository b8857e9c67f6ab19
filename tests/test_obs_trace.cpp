// Trace ring semantics and end-to-end determinism of the exports: identical
// runs must produce byte-identical trace/report JSON, sequentially and under
// the parallel sweep runner, and tracing must never perturb the simulation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "atm/topology.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "sim/stats.hpp"

namespace cni {
namespace {

using apps::make_params;
using cluster::BoardKind;

TEST(TraceRing, WrapAroundKeepsNewestAndCountsDrops) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    obs::TraceRecord r;
    r.time = i;
    ring.record(r);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.size(), 4u);

  std::vector<std::uint64_t> times;
  ring.for_each([&](const obs::TraceRecord& r) { times.push_back(r.time); });
  EXPECT_EQ(times, (std::vector<std::uint64_t>{2, 3, 4, 5}));  // oldest-first
}

TEST(TraceRing, ZeroCapacityIsClampedAndClearResets) {
  obs::TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  obs::TraceRecord r;
  ring.record(r);
  ring.record(r);
  EXPECT_EQ(ring.dropped(), 1u);
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

/// One small traced Jacobi run.
apps::RunResult traced_run(std::uint32_t procs) {
  cluster::SimParams params = make_params(BoardKind::kCni, procs);
  params.obs.trace = true;
  params.obs.trace_capacity = 1024;
  return apps::run_jacobi(params, apps::JacobiConfig{24, 3, 6}, nullptr);
}

/// Serializes a run the way the bench binaries do.
obs::ReportPoint to_point(const apps::RunResult& r) {
  obs::ReportPoint pt;
  pt.label = "test";
  pt.config = {{"app", "jacobi"}};
  pt.values = {{"elapsed_ps", static_cast<double>(r.elapsed)}};
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    pt.legacy.emplace_back(f.name, r.totals.*f.member);
  }
  pt.snapshot = r.snapshot;
  return pt;
}

TEST(ObsDeterminism, IdenticalRunsExportByteIdenticalJson) {
  const apps::RunResult a = traced_run(2);
  const apps::RunResult b = traced_run(2);

  ASSERT_TRUE(a.snapshot.traced);
  ASSERT_EQ(a.snapshot.nodes.size(), 2u);
  EXPECT_GT(a.snapshot.nodes[0].trace_recorded, 0u);

  const std::vector<obs::ReportPoint> pa{to_point(a)};
  const std::vector<obs::ReportPoint> pb{to_point(b)};
  EXPECT_EQ(obs::chrome_trace_json(pa), obs::chrome_trace_json(pb));
  EXPECT_EQ(obs::run_report_json("test_obs_trace", {}, pa),
            obs::run_report_json("test_obs_trace", {}, pb));
}

TEST(ObsDeterminism, ParallelSweepMatchesSequentialByteForByte) {
  // Reference export from a sequential run on this thread.
  const std::string ref = obs::chrome_trace_json({to_point(traced_run(2))});

  // Same simulation on 4 worker threads; every copy must match the reference.
  std::vector<std::string> exports(4);
  apps::parallel_indexed(exports.size(), 4, [&](std::size_t i) {
    exports[i] = obs::chrome_trace_json({to_point(traced_run(2))});
  });
  for (const std::string& e : exports) EXPECT_EQ(e, ref);
}

TEST(ObsDeterminism, TracingDoesNotPerturbTheSimulation) {
  cluster::SimParams off = make_params(BoardKind::kCni, 2);
  cluster::SimParams on = off;
  on.obs.trace = true;
  on.obs.trace_capacity = 256;  // small ring: wrap-around must not matter either

  const apps::JacobiConfig cfg{24, 3, 6};
  const apps::RunResult r_off = apps::run_jacobi(off, cfg, nullptr);
  const apps::RunResult r_on = apps::run_jacobi(on, cfg, nullptr);

  EXPECT_EQ(r_off.elapsed, r_on.elapsed);  // bit-identical figure numbers
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    EXPECT_EQ(r_off.totals.*f.member, r_on.totals.*f.member) << f.name;
  }
  EXPECT_FALSE(r_off.snapshot.traced);
  EXPECT_TRUE(r_on.snapshot.traced);
}

TEST(ObsReport, ChromeTraceShapeAndMetricsTotalsMatchLegacy) {
  const apps::RunResult r = traced_run(2);
  const std::vector<obs::ReportPoint> pts{to_point(r)};

  const std::string trace = obs::chrome_trace_json(pts);
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // metadata events
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(trace.find("dsm.fault"), std::string::npos);

  // The snapshot's bound counters must agree with the legacy accounts the
  // figures are computed from — same fields, same values.
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    EXPECT_EQ(r.snapshot.total_counter(f.name), r.totals.*f.member) << f.name;
  }

  const std::string report = obs::run_report_json("t", {{"k", "v"}}, pts);
  EXPECT_NE(report.find("\"schema\":\"cni-run-report\""), std::string::npos);
  EXPECT_NE(report.find("\"version\":2"), std::string::npos);
  EXPECT_NE(report.find("\"legacy\""), std::string::npos);
  EXPECT_NE(report.find("\"trace_truncated\":false"), std::string::npos);
  EXPECT_NE(report.find("\"critpath\":"), std::string::npos);
}

/// One Jacobi run on `topo`, traced or not.
apps::RunResult topo_run(atm::TopologyKind topo, bool traced) {
  cluster::SimParams params = make_params(BoardKind::kCni, 4);
  params.fabric.topology = topo;
  params.obs.trace = traced;
  params.obs.trace_capacity = 8192;
  return apps::run_jacobi(params, apps::JacobiConfig{24, 3, 6}, nullptr);
}

/// Trace export under every fabric topology: the causal spans ride the same
/// frames the topology routes, so per-hop Clos/torus paths must neither
/// perturb the simulation nor make the exports irreproducible.
class ObsTraceTopology : public ::testing::TestWithParam<atm::TopologyKind> {};

TEST_P(ObsTraceTopology, TracingLeavesTheRunUnchangedAndExportsReproduce) {
  const apps::RunResult off = topo_run(GetParam(), false);
  const apps::RunResult on = topo_run(GetParam(), true);

  EXPECT_EQ(off.elapsed, on.elapsed);  // simulated result first
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    EXPECT_EQ(off.totals.*f.member, on.totals.*f.member) << f.name;
  }
  // Every metric counter as well: tracing adds records, never counts.
  ASSERT_EQ(off.snapshot.nodes.size(), on.snapshot.nodes.size());
  for (std::size_t n = 0; n < off.snapshot.nodes.size(); ++n) {
    for (const obs::CounterSnapshot& c : off.snapshot.nodes[n].counters) {
      EXPECT_EQ(on.snapshot.nodes[n].counter_or(c.name, ~std::uint64_t{0}), c.value)
          << "node " << n << " " << c.name;
    }
  }

  // A second traced run exports the same bytes.
  const apps::RunResult again = topo_run(GetParam(), true);
  const std::vector<obs::ReportPoint> p1{to_point(on)};
  const std::vector<obs::ReportPoint> p2{to_point(again)};
  EXPECT_EQ(obs::chrome_trace_json(p1), obs::chrome_trace_json(p2));
  EXPECT_EQ(obs::run_report_json("test_obs_trace", {}, p1),
            obs::run_report_json("test_obs_trace", {}, p2));
}

TEST_P(ObsTraceTopology, CausalSpansSurviveTheTopology) {
  const std::string trace =
      obs::chrome_trace_json({to_point(topo_run(GetParam(), true))});
  // The remote-fault chain's anchor stages must appear regardless of how
  // many switch stages or dimension hops sit between the endpoints.
  EXPECT_NE(trace.find("causal.tx"), std::string::npos);
  EXPECT_NE(trace.find("causal.fab_wire"), std::string::npos);
  EXPECT_NE(trace.find("causal.deliver"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ObsTraceTopology,
                         ::testing::Values(atm::TopologyKind::kBanyan,
                                           atm::TopologyKind::kClos,
                                           atm::TopologyKind::kTorus),
                         [](const ::testing::TestParamInfo<atm::TopologyKind>& pi) {
                           return std::string(atm::topology_name(pi.param));
                         });

}  // namespace
}  // namespace cni
