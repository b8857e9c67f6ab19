// Fabric-topology scaling benchmark (DESIGN.md §14).
//
// Sweeps the three fabric topologies (single-stage banyan, folded Clos,
// 3D torus) across 256 / 1024 / 4096 nodes under three traffic scenarios:
//
//   * incast — every node fires at node 0: the adversarial case for the
//     destination downlink and, in the Clos, for the links into node 0's
//     leaf block. Contention shows up as simulated elapsed time, never as
//     nondeterminism.
//   * permutation — bit-reversal partner (self-inverse), the classic
//     banyan-adversarial pattern: every path crosses the full fabric, so
//     the multi-stage topologies pay their whole diameter.
//   * hotspot — deterministic hashed all-to-all with every fourth frame
//     aimed at one hot node: mixed background plus a moving contention spot.
//
// Each point runs the sharded engine at K = 1 and K = 4 and records wall
// clock, events/sec, the machine-independent event-parallelism bound, and
// the per-shard-pair lookahead the topology exported (matrix min/max beside
// the uniform single-bound floor) — the distance-aware slack is the whole
// reason the torus points barrier less than the banyan ones. Simulated
// elapsed cycles are CNI_CHECKed identical across K per point, extending
// the byte-identity claim to every topology at every scale.
//
// Wall numbers follow the BENCH_parsim honesty rule: on a host with fewer
// cores than shards, wall_vs_k1 is null and cores_limited is true.
//
// Usage: micro_topology [--json] [--fast] [--nodes=N] [--rounds=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "atm/topology.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "nic/wire.hpp"
#include "sim/sharded.hpp"
#include "util/check.hpp"

namespace {

using cni::atm::TopologyKind;

constexpr cni::nic::MsgType kSink = cni::nic::kTypeHandlerBase + 61;

struct Scenario {
  const char* name;
  /// Destination for `self`'s `k`-th frame.
  std::uint32_t (*partner)(std::uint32_t self, std::uint32_t k, std::uint32_t nodes);
};

std::uint32_t incast_partner(std::uint32_t self, std::uint32_t, std::uint32_t) {
  return self == 0 ? 1u : 0u;
}

std::uint32_t bit_reverse(std::uint32_t v, std::uint32_t bits) {
  std::uint32_t r = 0;
  for (std::uint32_t i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

std::uint32_t permutation_partner(std::uint32_t self, std::uint32_t, std::uint32_t nodes) {
  std::uint32_t bits = 0;
  while ((1u << bits) < nodes) ++bits;
  const std::uint32_t dst = bit_reverse(self, bits);
  return dst == self ? (self ^ 1u) : dst;
}

std::uint32_t hotspot_partner(std::uint32_t self, std::uint32_t k, std::uint32_t nodes) {
  const std::uint32_t hot = nodes / 2;
  std::uint32_t dst = k % 4 == 3 ? hot : (self * 2654435761u + k * 40503u) % nodes;
  if (dst == self) dst = (dst + 1) % nodes;
  return dst;
}

constexpr Scenario kScenarios[] = {
    {"incast", incast_partner},
    {"permutation", permutation_partner},
    {"hotspot", hotspot_partner},
};

struct ModeResult {
  std::string name;
  std::uint32_t shards = 0;
  double wall_ms = 0;
  std::uint64_t elapsed_cycles = 0;
  cni::sim::EpochStats stats;
};

/// Off-diagonal range of the topology's exported lookahead matrix at K = 4,
/// beside the uniform single-bound floor it improves on.
struct LookaheadSummary {
  double uniform_ns = 0;
  double matrix_min_ns = 0;
  double matrix_max_ns = 0;
  std::uint32_t shards = 0;
};

struct Point {
  std::string name;
  const char* topology;
  const char* scenario;
  std::uint32_t nodes = 0;
  LookaheadSummary lookahead;
  std::vector<ModeResult> modes;
};

cni::cluster::SimParams point_params(TopologyKind kind, std::uint32_t nodes,
                                     std::uint32_t shards) {
  cni::cluster::SimParams params =
      cni::apps::make_params(cni::cluster::BoardKind::kCni, nodes);
  params.fabric.switch_ports = nodes;
  params.fabric.topology = kind;
  params.sim_shards = shards;
  return params;
}

ModeResult run_mode(TopologyKind kind, const Scenario& sc, std::uint32_t nodes,
                    std::uint32_t shards, std::uint32_t rounds,
                    LookaheadSummary* lookahead) {
  using namespace cni;
  cluster::Cluster cl(point_params(kind, nodes, shards));

  if (lookahead != nullptr) {
    const sim::ShardPlan plan = sim::ShardPlan::balanced(nodes, shards);
    const sim::LookaheadMatrix m = cl.fabric().lookahead_matrix(plan);
    sim::SimDuration lo = sim::LookaheadMatrix::kUnbounded;
    sim::SimDuration hi = 0;
    for (std::uint32_t r = 0; r < plan.shards; ++r) {
      for (std::uint32_t c = 0; c < plan.shards; ++c) {
        if (r == c) continue;
        const sim::SimDuration e = m.at(r, c);
        if (e < lo) lo = e;
        if (e > hi) hi = e;
      }
    }
    lookahead->uniform_ns =
        static_cast<double>(cl.fabric().min_lookahead()) / sim::kNanosecond;
    lookahead->matrix_min_ns = static_cast<double>(lo) / sim::kNanosecond;
    lookahead->matrix_max_ns = static_cast<double>(hi) / sim::kNanosecond;
    lookahead->shards = plan.shards;
  }

  // Sink service: charge a small fixed cost, no reply. The benchmark load is
  // the *fabric* traversal; the handler just gives each delivery a footprint
  // on the receiving NIC.
  for (std::uint32_t n = 0; n < nodes; ++n) {
    cl.node(n).board().install_handler(
        kSink,
        [](nic::NicBoard::RxContext& ctx, const atm::Frame&) { ctx.charge(80); },
        /*code_bytes=*/1024);
  }

  const auto t0 = std::chrono::steady_clock::now();
  cl.run([&](std::size_t i, sim::SimThread& t) {
    const auto self = static_cast<std::uint32_t>(i);
    for (std::uint32_t k = 0; k < rounds; ++k) {
      // Deterministic per-(node, round) jitter so sends decorrelate instead
      // of arriving as one lock-step convoy (same scheme as micro_parsim).
      cl.node(i).cpu().compute(300 + (self * 2654435761u + k * 40503u) % 2048);
      cl.node(i).cpu().sync(t);
      nic::MsgHeader h;
      h.type = kSink;
      h.src_node = self;
      h.seq = cl.node(i).board().next_seq();
      h.aux = k;
      const std::uint32_t dst = sc.partner(self, k, nodes);
      cl.node(i).board().send_from_host(t, atm::Frame::make(self, dst, 1, h), {});
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult m;
  m.name = "k" + std::to_string(shards);
  m.shards = shards;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.elapsed_cycles = cl.elapsed_cpu_cycles();
  m.stats = cl.epoch_stats();
  return m;
}

double event_parallelism(const ModeResult& m) {
  return m.stats.critical_path_events == 0
             ? 1.0
             : static_cast<double>(m.stats.events_total) /
                   static_cast<double>(m.stats.critical_path_events);
}

void print_json(const std::vector<Point>& points) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("{\n  \"points\": {\n");
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const Point& p = points[pi];
    std::printf("    \"%s\": {\n", p.name.c_str());
    std::printf("      \"topology\": \"%s\", \"scenario\": \"%s\", "
                "\"nodes\": %u, \"num_cpus\": %u,\n",
                p.topology, p.scenario, p.nodes, hw);
    std::printf("      \"lookahead\": {\"uniform_ns\": %.0f, "
                "\"matrix_min_ns\": %.0f, \"matrix_max_ns\": %.0f, "
                "\"shards\": %u},\n",
                p.lookahead.uniform_ns, p.lookahead.matrix_min_ns,
                p.lookahead.matrix_max_ns, p.lookahead.shards);
    std::printf("      \"modes\": {\n");
    const ModeResult& k1 = p.modes.front();
    for (std::size_t i = 0; i < p.modes.size(); ++i) {
      const ModeResult& m = p.modes[i];
      const bool cores_limited = hw < m.shards;
      const double secs = m.wall_ms / 1e3;
      char speedup[32];
      if (cores_limited) {
        std::snprintf(speedup, sizeof speedup, "null");
      } else {
        std::snprintf(speedup, sizeof speedup, "%.2f", k1.wall_ms / m.wall_ms);
      }
      std::printf(
          "        \"%s\": {\"wall_ms\": %.2f, \"elapsed_cycles\": %llu, "
          "\"events_total\": %llu, \"events_per_sec\": %.0f, "
          "\"epochs\": %llu, \"barriers\": %llu, "
          "\"event_parallelism\": %.2f, \"wall_vs_k1\": %s, "
          "\"cores_limited\": %s}%s\n",
          m.name.c_str(), m.wall_ms,
          static_cast<unsigned long long>(m.elapsed_cycles),
          static_cast<unsigned long long>(m.stats.events_total),
          secs > 0 ? static_cast<double>(m.stats.events_total) / secs : 0.0,
          static_cast<unsigned long long>(m.stats.epochs),
          static_cast<unsigned long long>(m.stats.barriers),
          event_parallelism(m), speedup, cores_limited ? "true" : "false",
          i + 1 < p.modes.size() ? "," : "");
    }
    std::printf("      }\n    }%s\n", pi + 1 < points.size() ? "," : "");
  }
  std::printf("  }\n}\n");
}

void print_table(const Point& p) {
  std::printf("\n%s  (lookahead uniform %.0f ns, matrix %.0f..%.0f ns)\n",
              p.name.c_str(), p.lookahead.uniform_ns, p.lookahead.matrix_min_ns,
              p.lookahead.matrix_max_ns);
  std::printf("%-6s %12s %16s %14s %10s %10s %18s\n", "mode", "wall_ms",
              "elapsed_cycles", "events/sec", "epochs", "barriers",
              "event_parallelism");
  for (const ModeResult& m : p.modes) {
    const double secs = m.wall_ms / 1e3;
    std::printf("%-6s %12.2f %16llu %14.0f %10llu %10llu %18.2f\n",
                m.name.c_str(), m.wall_ms,
                static_cast<unsigned long long>(m.elapsed_cycles),
                secs > 0 ? static_cast<double>(m.stats.events_total) / secs : 0.0,
                static_cast<unsigned long long>(m.stats.epochs),
                static_cast<unsigned long long>(m.stats.barriers),
                event_parallelism(m));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool fast = cni::bench::fast_mode();
  std::uint32_t nodes_arg = 0;
  std::uint32_t rounds_arg = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    }
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 9));
    }
  }

  std::vector<std::uint32_t> node_counts;
  if (nodes_arg != 0) {
    node_counts = {nodes_arg};
  } else if (fast) {
    node_counts = {64};
  } else {
    node_counts = {256, 1024, 4096};
  }
  const std::uint32_t rounds = rounds_arg != 0 ? rounds_arg : (fast ? 3 : 6);

  constexpr TopologyKind kKinds[] = {TopologyKind::kBanyan, TopologyKind::kClos,
                                     TopologyKind::kTorus};

  std::vector<Point> points;
  for (const TopologyKind kind : kKinds) {
    for (const std::uint32_t nodes : node_counts) {
      for (const Scenario& sc : kScenarios) {
        Point p;
        p.topology = cni::atm::topology_name(kind);
        p.scenario = sc.name;
        p.nodes = nodes;
        p.name = std::string(p.topology) + "/" + sc.name + "/" + std::to_string(nodes);
        p.modes.push_back(run_mode(kind, sc, nodes, 1, rounds, nullptr));
        p.modes.push_back(run_mode(kind, sc, nodes, 4, rounds, &p.lookahead));
        CNI_CHECK_MSG(p.modes[0].elapsed_cycles == p.modes[1].elapsed_cycles,
                      "topology point diverged across K");
        if (!json) print_table(p);
        points.push_back(std::move(p));
      }
    }
  }
  if (json) print_json(points);
  return 0;
}
