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
// Each point records wall clock, simulated elapsed cycles and events/sec of
// one run, so the cost of each topology's routing shows at every scale. The
// points therefore run one at a time, not on the sweep pool: a point's wall
// clock must not share the host with its neighbours.
//
// Usage: micro_topology [--json] [--nodes=N] [--rounds=N]
// (--nodes a power of two >= 2, --rounds >= 1; anything else exits 2)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "atm/topology.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "nic/wire.hpp"

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

struct Point {
  std::string name;
  const char* topology;
  const char* scenario;
  std::uint32_t nodes = 0;
  double wall_ms = 0;
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t events_total = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events_total) / (wall_ms / 1e3) : 0.0;
  }
};

cni::cluster::SimParams point_params(TopologyKind kind, std::uint32_t nodes) {
  cni::cluster::SimParams params =
      cni::apps::make_params(cni::cluster::BoardKind::kCni, nodes);
  params.fabric.switch_ports = nodes;
  params.fabric.topology = kind;
  return params;
}

void run_point(TopologyKind kind, const Scenario& sc, std::uint32_t rounds, Point& p) {
  using namespace cni;
  const std::uint32_t nodes = p.nodes;
  cluster::Cluster cl(point_params(kind, nodes));

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
      // of arriving as one lock-step convoy.
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

  p.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  p.elapsed_cycles = cl.elapsed_cpu_cycles();
  p.events_total = cl.engine().events_executed();
}

void print_json(const std::vector<Point>& points) {
  std::printf("{\n  \"points\": {\n");
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const Point& p = points[pi];
    std::printf("    \"%s\": {\"topology\": \"%s\", \"scenario\": \"%s\", "
                "\"nodes\": %u, \"wall_ms\": %.2f, \"elapsed_cycles\": %llu, "
                "\"events_total\": %llu, \"events_per_sec\": %.0f}%s\n",
                p.name.c_str(), p.topology, p.scenario, p.nodes, p.wall_ms,
                static_cast<unsigned long long>(p.elapsed_cycles),
                static_cast<unsigned long long>(p.events_total), p.events_per_sec(),
                pi + 1 < points.size() ? "," : "");
  }
  std::printf("  }\n}\n");
}

void print_table(const std::vector<Point>& points) {
  std::printf("%-28s %12s %16s %14s\n", "point", "wall_ms", "elapsed_cycles",
              "events/sec");
  for (const Point& p : points) {
    std::printf("%-28s %12.2f %16llu %14.0f\n", p.name.c_str(), p.wall_ms,
                static_cast<unsigned long long>(p.elapsed_cycles), p.events_per_sec());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cni::bench::Args args =
      cni::bench::parse_args(argc, argv, "micro_topology", cni::bench::kScaleFlags);
  const bool fast = cni::bench::fast_mode();
  std::vector<std::uint32_t> node_counts = {256, 1024, 4096};
  if (fast) node_counts = {64};
  if (args.nodes != 0) node_counts = {args.nodes};
  const std::uint32_t rounds = args.rounds != 0 ? args.rounds : (fast ? 3 : 6);

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
        run_point(kind, sc, rounds, p);
        points.push_back(std::move(p));
      }
    }
  }
  if (args.json) {
    print_json(points);
  } else {
    print_table(points);
  }
  return 0;
}
