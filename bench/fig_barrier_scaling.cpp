// Barrier/collective scaling: NIC-resident combining tree vs host baseline.
//
// The tentpole claim behind --collective=nic (DESIGN.md §16): the seed's
// centralized barrier serializes O(N) arrive/release messages through one
// manager NIC, so barrier latency grows linearly with node count, while the
// topology-derived combining tree runs the same episode in O(log N) —
// combine handlers fold child contributions on the NIC processor as packets
// arrive, and the down-sweep fans the release out over the same tree. This
// benchmark plots that crossover: simulated barrier and reduce latency per
// episode against node count, for
//
//   * cni_tree       — CNI board, --collective=nic (the AIH combining tree)
//   * cni_host       — CNI board, --collective=host (centralized manager;
//                      isolates the protocol change from the board change)
//   * standard_host  — standard NIC, host collectives (the full baseline)
//
// across all three fabric topologies. The tree shape itself is printed per
// point (fanin/depth) — the banyan and the multi-stage fabrics pick
// different fan-in from their zero-load distances at 1024 nodes.
//
// Contention at the switch resolves first come, first served by head
// arrival (DESIGN.md §12), which is what the centralized baselines' O(N)
// message storms stress hardest.
//
// Usage: fig_barrier_scaling [--json] [--nodes=N] [--rounds=N]
//                            [--topology=banyan|clos|torus] [report flags]
// --nodes takes a power of two >= 2 and --rounds a count >= 1; any other
// value exits 2 with the usage before a cluster is built. Every
// (topology, nodes, mode) point is one job on the sweep pool.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "atm/topology.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "obs/report.hpp"
#include "util/check.hpp"

namespace {

using cni::atm::TopologyKind;
using cni::cluster::BoardKind;
using cni::cluster::CollectiveMode;

struct Mode {
  const char* name;
  BoardKind board;
  CollectiveMode collective;
};

constexpr Mode kModes[] = {
    {"cni_tree", BoardKind::kCni, CollectiveMode::kNic},
    {"cni_host", BoardKind::kCni, CollectiveMode::kHost},
    {"standard_host", BoardKind::kStandard, CollectiveMode::kHost},
};

struct ModeResult {
  const char* name = "";
  std::uint64_t barrier_ps = 0;  ///< simulated latency per barrier episode
  std::uint64_t reduce_ps = 0;   ///< simulated latency per reduce episode
  std::uint64_t elapsed_cycles = 0;  ///< barrier phase, host CPU cycles
  std::uint32_t fanin = 0;
  std::uint32_t depth = 0;
  cni::obs::Snapshot snapshot;       ///< barrier phase
  cni::sim::NodeStats totals;        ///< barrier phase
};

struct Point {
  std::string name;
  const char* topology = "";
  std::uint32_t nodes = 0;
  std::vector<ModeResult> modes;
};

cni::cluster::SimParams point_params(TopologyKind kind, const Mode& mode,
                                     std::uint32_t nodes) {
  cni::cluster::SimParams params = cni::apps::make_params(mode.board, nodes);
  std::uint32_t ports = 32;
  while (ports < nodes) ports *= 2;
  params.fabric.switch_ports = ports;
  params.fabric.topology = kind;
  return params;
}

/// One phase = one fresh cluster running `rounds` episodes of `body`.
/// Returns the cluster's simulated elapsed time.
template <typename Body>
cni::sim::SimTime run_phase(const cni::cluster::SimParams& params,
                            const cni::dsm::DsmParams& dp, std::uint32_t rounds,
                            Body body, ModeResult* out) {
  using namespace cni;
  cluster::Cluster cl(params);
  dsm::DsmSystem sys(cl, dp);
  const sim::SimTime elapsed = cl.run([&](std::size_t i, sim::SimThread& t) {
    dsm::DsmContext ctx(sys, i, t);
    for (std::uint32_t r = 0; r < rounds; ++r) body(ctx, r);
  });
  if (out != nullptr) {
    out->elapsed_cycles = cl.elapsed_cpu_cycles();
    out->fanin = sys.collective_tree().fanin;
    out->depth = sys.collective_tree().depth;
    out->snapshot = cl.snapshot();
    out->totals = cl.stats().total();
  }
  return elapsed;
}

ModeResult run_mode(TopologyKind kind, const Mode& mode, std::uint32_t nodes,
                    std::uint32_t rounds) {
  using namespace cni;
  const cluster::SimParams params = point_params(kind, mode, nodes);
  dsm::DsmParams dp;
  dp.collective = mode.collective;

  ModeResult m;
  m.name = mode.name;
  const sim::SimTime bar = run_phase(
      params, dp, rounds,
      [](dsm::DsmContext& ctx, std::uint32_t) { ctx.barrier(); }, &m);
  const sim::SimTime red = run_phase(
      params, dp, rounds,
      [](dsm::DsmContext& ctx, std::uint32_t r) {
        ctx.reduce_u64(dsm::ReduceOp::kSum, ctx.self() + r);
      },
      nullptr);
  m.barrier_ps = bar / rounds;
  m.reduce_ps = red / rounds;
  return m;
}

void print_json(const std::vector<Point>& points, std::uint32_t rounds) {
  std::printf("{\n  \"rounds\": %u,\n  \"points\": {\n", rounds);
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const Point& p = points[pi];
    std::printf("    \"%s\": {\n", p.name.c_str());
    std::printf("      \"topology\": \"%s\", \"nodes\": %u,\n", p.topology, p.nodes);
    std::printf("      \"modes\": {\n");
    for (std::size_t i = 0; i < p.modes.size(); ++i) {
      const ModeResult& m = p.modes[i];
      std::printf(
          "        \"%s\": {\"barrier_ps\": %llu, \"reduce_ps\": %llu, "
          "\"elapsed_cycles\": %llu, \"fanin\": %u, \"depth\": %u}%s\n",
          m.name, static_cast<unsigned long long>(m.barrier_ps),
          static_cast<unsigned long long>(m.reduce_ps),
          static_cast<unsigned long long>(m.elapsed_cycles), m.fanin, m.depth,
          i + 1 < p.modes.size() ? "," : "");
    }
    std::printf("      }\n    }%s\n", pi + 1 < points.size() ? "," : "");
  }
  std::printf("  }\n}\n");
}

void print_table(const Point& p) {
  std::printf("\n%s\n", p.name.c_str());
  std::printf("%-14s %16s %16s %8s %8s\n", "mode", "barrier_us", "reduce_us",
              "fanin", "depth");
  for (const ModeResult& m : p.modes) {
    std::printf("%-14s %16.2f %16.2f %8u %8u\n", m.name,
                static_cast<double>(m.barrier_ps) / 1e6,
                static_cast<double>(m.reduce_ps) / 1e6, m.fanin, m.depth);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cni;
  bench::Args args = bench::parse_args(argc, argv, "fig_barrier_scaling",
                                       bench::kFigureFlags | bench::kScaleFlags);
  obs::Reporter& reporter = args.report;
  reporter.add_config("figure", "fig_barrier_scaling");
  reporter.add_config("app", "barrier");

  const bool fast = bench::fast_mode();
  std::vector<std::uint32_t> node_counts = {256, 1024, 4096};
  if (fast) node_counts = {64, 256};
  if (args.nodes != 0) node_counts = {args.nodes};
  const std::uint32_t rounds = args.rounds != 0 ? args.rounds : (fast ? 4 : 8);

  // --topology pins the sweep to one fabric; otherwise cover all three.
  std::vector<TopologyKind> kinds = {TopologyKind::kBanyan, TopologyKind::kClos,
                                     TopologyKind::kTorus};
  if (args.topology) kinds = {*args.topology};

  std::vector<Point> points;
  std::vector<bench::Job<ModeResult>> jobs;  // per point: one per kModes entry
  for (const TopologyKind kind : kinds) {
    for (const std::uint32_t nodes : node_counts) {
      Point p;
      p.topology = atm::topology_name(kind);
      p.nodes = nodes;
      p.name = std::string(p.topology) + "/" + std::to_string(nodes);
      points.push_back(std::move(p));
      for (const Mode& mode : kModes) {
        jobs.push_back({nodes, [=] { return run_mode(kind, mode, nodes, rounds); }});
      }
    }
  }
  std::vector<ModeResult> results = bench::run_points(jobs);

  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    Point& p = points[pi];
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      p.modes.push_back(std::move(results[pi * std::size(kModes) + m]));
    }
    // The tree must beat the centralized protocols once the O(N) manager
    // serialization dominates — the acceptance bar for this figure.
    if (p.nodes >= 1024) {
      CNI_CHECK_MSG(p.modes[0].barrier_ps < p.modes[1].barrier_ps &&
                        p.modes[0].barrier_ps < p.modes[2].barrier_ps,
                    "NIC tree barrier lost to the centralized baseline");
    }
    if (!args.json) print_table(p);
    if (reporter.active()) {
      for (const ModeResult& m : p.modes) {
        obs::ReportPoint pt;
        pt.label = p.name + " mode=" + m.name;
        pt.config = {{"topology", p.topology},
                     {"nodes", std::to_string(p.nodes)},
                     {"mode", m.name}};
        pt.values = {{"barrier_ps", static_cast<double>(m.barrier_ps)},
                     {"reduce_ps", static_cast<double>(m.reduce_ps)},
                     {"fanin", static_cast<double>(m.fanin)},
                     {"depth", static_cast<double>(m.depth)}};
        bench::fill_legacy(pt, m.totals);
        pt.snapshot = m.snapshot;
        reporter.add_point(std::move(pt));
      }
    }
  }
  if (args.json) print_json(points, rounds);
  return reporter.finish() ? 0 : 1;
}
