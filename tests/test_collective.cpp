// NIC-resident collectives (DESIGN.md §16): combining-tree shapes, the
// topology-derived fan-in, the tree barrier/reduce protocol in both
// collective modes, and traced-against-untraced byte identity under
// --collective=nic.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "atm/coll_tree.hpp"
#include "atm/topology.hpp"
#include "cluster/cluster.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "nic/board.hpp"
#include "obs/report.hpp"

namespace cni {
namespace {

using cluster::BoardKind;
using cluster::CollectiveMode;

// ---------------------------------------------------------------------------
// Tree shapes (pure functions of (topology, N, costs))

/// Walks every structural invariant a combining tree must hold: a single
/// root, parent/child agreement, ascending child order, the fan-in cap, and
/// the advertised depth.
void check_tree(const atm::CollectiveTree& t) {
  ASSERT_EQ(t.parent.size(), t.nodes);
  ASSERT_EQ(t.children.size(), t.nodes);
  std::uint32_t roots = 0;
  std::size_t edges = 0;
  for (std::uint32_t v = 0; v < t.nodes; ++v) {
    if (t.parent[v] == v) ++roots;
    ASSERT_LE(t.children[v].size(), t.fanin) << "node " << v;
    std::uint32_t prev = 0;
    for (const std::uint32_t c : t.children[v]) {
      ASSERT_NE(c, v);
      ASSERT_EQ(t.parent[c], v);
      ASSERT_TRUE(t.children[v].front() == c || c > prev) << "children must ascend";
      prev = c;
      ++edges;
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(edges, t.nodes - 1u);  // a tree: every non-root has one parent
  // depth == the longest parent-walk, and every walk terminates at the root.
  std::uint32_t longest = 0;
  for (std::uint32_t v = 0; v < t.nodes; ++v) {
    std::uint32_t hops = 0;
    std::uint32_t at = v;
    while (t.parent[at] != at) {
      at = t.parent[at];
      ASSERT_LE(++hops, t.nodes);
    }
    longest = std::max(longest, hops);
  }
  EXPECT_EQ(t.depth, longest);
}

TEST(CollectiveTree, KAryStructureInvariants) {
  for (const std::uint32_t nodes : {1u, 2u, 3u, 7u, 8u, 17u, 64u, 100u, 256u}) {
    for (const std::uint32_t fanin : {1u, 2u, 3u, 4u, 8u, 16u}) {
      const atm::CollectiveTree t = atm::make_kary_tree(nodes, fanin);
      ASSERT_NO_FATAL_FAILURE(check_tree(t)) << nodes << "-ary-" << fanin;
      EXPECT_EQ(t.parent[0], 0u) << "k-ary trees root at node 0";
      // Contiguous-range splitting: a child's id exceeds its parent's, so a
      // reverse id sweep is a valid bottom-up evaluation order.
      for (std::uint32_t v = 1; v < nodes; ++v) EXPECT_LT(t.parent[v], v);
    }
  }
}

TEST(CollectiveTree, StarIsTheHostModeShape) {
  const atm::CollectiveTree t = atm::make_star_tree(6, 0);
  ASSERT_NO_FATAL_FAILURE(check_tree(t));
  EXPECT_EQ(t.depth, 1u);
  EXPECT_EQ(t.children[0].size(), 5u);
  // A star rooted off node 0 (the generalized form) holds the invariants too.
  const atm::CollectiveTree off = atm::make_star_tree(5, 3);
  ASSERT_NO_FATAL_FAILURE(check_tree(off));
  EXPECT_EQ(off.parent[3], 3u);
  EXPECT_EQ(off.children[3].size(), 4u);
}

/// The exact cost constants DsmSystem derives for the NIC tree (see
/// dsm/system.cpp): an edge is the full store-and-forward pipeline, a child
/// slot is one more frame's serialized downlink occupancy.
struct NicTreeCosts {
  sim::SimDuration per_hop;
  sim::SimDuration per_child;
  NicTreeCosts() {
    const nic::NicParams nic;
    const dsm::DsmParams dp;
    const sim::Clock clk(nic.nic_freq_hz);
    per_hop = clk.cycles(nic.per_frame_tx_cycles + nic.per_frame_rx_cycles +
                         nic.aih_dispatch_cycles + dp.handler_base_cycles);
    per_child = clk.cycles(nic.per_frame_rx_cycles);
  }
};

atm::CollectiveTree tree_for(atm::TopologyKind kind, std::uint32_t nodes) {
  atm::FabricParams fp;
  fp.topology = kind;
  std::uint32_t ports = 32;
  while (ports < nodes) ports *= 2;
  fp.switch_ports = ports;
  const std::unique_ptr<atm::Topology> topo = atm::make_topology(fp);
  const NicTreeCosts c;
  return atm::make_collective_tree(*topo, nodes, c.per_hop, c.per_child);
}

TEST(CollectiveTree, FaninFollowsTopologyDistances) {
  // At the paper's Figure 4 scale the flat banyan (uniform 500 ns) keeps the
  // tree narrow, while the Clos cross-block and torus multi-hop distances
  // up-weight depth and buy wider fan-in — the tentpole's topology-awareness.
  const atm::CollectiveTree banyan = tree_for(atm::TopologyKind::kBanyan, 1024);
  const atm::CollectiveTree clos = tree_for(atm::TopologyKind::kClos, 1024);
  const atm::CollectiveTree torus = tree_for(atm::TopologyKind::kTorus, 1024);
  ASSERT_NO_FATAL_FAILURE(check_tree(banyan));
  ASSERT_NO_FATAL_FAILURE(check_tree(clos));
  ASSERT_NO_FATAL_FAILURE(check_tree(torus));
  EXPECT_EQ(banyan.fanin, 4u);
  EXPECT_GT(clos.fanin, banyan.fanin);
  EXPECT_GT(torus.fanin, banyan.fanin);
  // Every choice is logarithmic: the O(log N) shape the scaling bench plots.
  for (const atm::CollectiveTree* t : {&banyan, &clos, &torus}) {
    EXPECT_LE(t->depth, 10u);  // <= log2(1024)
    EXPECT_GE(t->depth, 2u);
  }
}

TEST(CollectiveTree, ChosenFaninMinimizesTheCostModel) {
  const NicTreeCosts c;
  for (const atm::TopologyKind kind :
       {atm::TopologyKind::kBanyan, atm::TopologyKind::kClos, atm::TopologyKind::kTorus}) {
    atm::FabricParams fp;
    fp.topology = kind;
    fp.switch_ports = 256;
    const std::unique_ptr<atm::Topology> topo = atm::make_topology(fp);
    const atm::CollectiveTree best =
        atm::make_collective_tree(*topo, 256, c.per_hop, c.per_child);
    const sim::SimDuration best_cost = best.up_sweep_cost(*topo, c.per_hop, c.per_child);
    for (const std::uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
      const atm::CollectiveTree cand = atm::make_kary_tree(256, k);
      EXPECT_LE(best_cost, cand.up_sweep_cost(*topo, c.per_hop, c.per_child))
          << atm::topology_name(kind) << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol behaviour (full stack, hand-written node programs)

struct Fixture {
  explicit Fixture(std::uint32_t procs, dsm::DsmParams dp = {},
                   BoardKind board = BoardKind::kCni)
      : cl(apps::make_params(board, procs)), sys(cl, dp) {}
  cluster::Cluster cl;
  dsm::DsmSystem sys;

  void run(const std::function<void(dsm::DsmContext&)>& body) {
    cl.run([&](std::size_t i, sim::SimThread& t) {
      dsm::DsmContext ctx(sys, i, t);
      body(ctx);
    });
  }
};

dsm::DsmParams nic_params() {
  dsm::DsmParams dp;
  dp.collective = CollectiveMode::kNic;
  return dp;
}

TEST(NicCollective, BarrierPropagatesWritesAcrossEpisodes) {
  // Three barrier episodes with a rotating writer: every down-sweep must
  // carry exactly the intervals the receiving subtree has not seen, and the
  // epoch lockstep must hold across episodes.
  constexpr std::uint32_t kProcs = 5;  // uneven tree: exercises chunk splits
  Fixture f(kProcs, nic_params());
  EXPECT_EQ(f.sys.collective(), CollectiveMode::kNic);
  const mem::VAddr x = f.sys.alloc(8 * kProcs, "x");
  std::vector<std::uint64_t> seen(kProcs, 0);
  f.run([&](dsm::DsmContext& ctx) {
    for (std::uint32_t round = 0; round < 3; ++round) {
      const std::uint32_t writer = round % kProcs;
      if (ctx.self() == writer) {
        ctx.write<std::uint64_t>(x + 8 * writer, 100 * round + writer);
      }
      ctx.barrier();
      const auto got = ctx.read<std::uint64_t>(x + 8 * writer);
      if (got != 100 * round + writer) seen[ctx.self()] = ~0ull;
      ctx.barrier();
    }
    seen[ctx.self()] = seen[ctx.self()] == ~0ull ? ~0ull : 1;
  });
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    EXPECT_EQ(seen[i], 1u) << "node " << i << " read a stale value";
  }
}

TEST(NicCollective, MatchesHostBarrierSemantics) {
  // The same program under both modes must compute the same values — only
  // the synchronization cost may differ.
  auto program = [](CollectiveMode mode) {
    dsm::DsmParams dp;
    dp.collective = mode;
    Fixture f(4, dp);
    const mem::VAddr acc = f.sys.alloc(8, "acc");
    std::uint64_t final = 0;
    f.run([&](dsm::DsmContext& ctx) {
      for (std::uint32_t round = 0; round < 4; ++round) {
        if (ctx.self() == round % 4) {
          const auto v = ctx.read<std::uint64_t>(acc);
          ctx.write<std::uint64_t>(acc, v * 3 + ctx.self() + 1);
        }
        ctx.barrier();
      }
      if (ctx.self() == 3) final = ctx.read<std::uint64_t>(acc);
    });
    return final;
  };
  const std::uint64_t host = program(CollectiveMode::kHost);
  const std::uint64_t nic = program(CollectiveMode::kNic);
  EXPECT_EQ(host, nic);
  EXPECT_EQ(host, ((1u * 3 + 2) * 3 + 3) * 3 + 4);  // chained writer updates
}

TEST(NicCollective, ReduceBothModes) {
  for (const CollectiveMode mode : {CollectiveMode::kHost, CollectiveMode::kNic}) {
    dsm::DsmParams dp;
    dp.collective = mode;
    constexpr std::uint32_t kProcs = 6;
    Fixture f(kProcs, dp);
    std::vector<std::uint64_t> sums(kProcs), mins(kProcs), maxs(kProcs);
    f.run([&](dsm::DsmContext& ctx) {
      const std::uint64_t mine = 10 + ctx.self();
      sums[ctx.self()] = ctx.reduce_u64(dsm::ReduceOp::kSum, mine);
      mins[ctx.self()] = ctx.reduce_u64(dsm::ReduceOp::kMin, mine);
      maxs[ctx.self()] = ctx.reduce_u64(dsm::ReduceOp::kMax, mine);
    });
    for (std::uint32_t i = 0; i < kProcs; ++i) {
      EXPECT_EQ(sums[i], (10u + 15u) * kProcs / 2) << "mode " << collective_name(mode);
      EXPECT_EQ(mins[i], 10u);
      EXPECT_EQ(maxs[i], 10u + kProcs - 1);
    }
  }
}

TEST(NicCollective, BarrierManagerIsLazyAndManagerOnly) {
  // Host mode: only the manager node ever materializes the centralized
  // state, and only once a barrier actually runs. NIC mode: nobody does.
  Fixture host(4);  // default DsmParams: kHost
  host.run([](dsm::DsmContext& ctx) {
    ctx.barrier();
    ctx.barrier();
  });
  EXPECT_TRUE(host.sys.runtime(0).barrier_manager_allocated());
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(host.sys.runtime(i).barrier_manager_allocated()) << "node " << i;
  }

  Fixture idle(4);  // no barrier ever runs: not even the manager allocates
  idle.run([](dsm::DsmContext&) {});
  EXPECT_FALSE(idle.sys.runtime(0).barrier_manager_allocated());

  Fixture nic(4, nic_params());
  nic.run([](dsm::DsmContext& ctx) { ctx.barrier(); });
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(nic.sys.runtime(i).barrier_manager_allocated()) << "node " << i;
  }
}

TEST(NicCollective, HostModeTreeIsAStarAndNicModeIsNot) {
  Fixture host(8);
  EXPECT_EQ(host.sys.collective_tree().depth, 1u);
  EXPECT_EQ(host.sys.collective_tree().children[0].size(), 7u);
  Fixture nic(8, nic_params());
  EXPECT_GE(nic.sys.collective_tree().depth, 2u);
  EXPECT_LE(nic.sys.collective_tree().fanin, 4u);
}

TEST(NicCollective, DeepDerivedTreeReducesAndReleases) {
  // The fan-in is always derived from the topology. On a 128-port banyan the
  // derived NIC tree is three levels deep (fan-in 8), so a reduce and a
  // barrier cross two levels of interior combiners on the way up and down.
  constexpr std::uint32_t kProcs = 128;
  cluster::SimParams params = apps::make_params(BoardKind::kCni, kProcs);
  params.fabric.topology = atm::TopologyKind::kBanyan;
  params.fabric.switch_ports = kProcs;
  cluster::Cluster cl(params);
  dsm::DsmSystem sys(cl, nic_params());
  const atm::CollectiveTree& tree = sys.collective_tree();
  ASSERT_NO_FATAL_FAILURE(check_tree(tree));
  EXPECT_EQ(tree.fanin, 8u);
  EXPECT_EQ(tree.depth, 3u);
  std::uint32_t deepest = 0;
  std::uint32_t deepest_level = 0;
  for (std::uint32_t v = 0; v < kProcs; ++v) {
    std::uint32_t level = 0;
    for (std::uint32_t at = v; tree.parent[at] != at; at = tree.parent[at]) ++level;
    if (level > deepest_level) {
      deepest = v;
      deepest_level = level;
    }
  }
  ASSERT_EQ(deepest_level, tree.depth);

  std::vector<std::uint64_t> sums(kProcs, 0);
  std::vector<int> released(kProcs, 0);
  cl.run([&](std::size_t i, sim::SimThread& t) {
    dsm::DsmContext ctx(sys, i, t);
    sums[i] = ctx.reduce_u64(dsm::ReduceOp::kSum, i + 1);
    ctx.barrier();
    released[i] = 1;
  });
  EXPECT_EQ(sums[deepest], kProcs * (kProcs + 1) / 2) << "deepest leaf " << deepest;
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    EXPECT_EQ(sums[i], kProcs * (kProcs + 1) / 2) << "node " << i;
    EXPECT_EQ(released[i], 1) << "node " << i << " never left the barrier";
  }
}

// ---------------------------------------------------------------------------
// Determinism: --collective=nic runs report the same bytes traced and
// untraced on every topology.

/// Process-wide collective default, restored on scope exit (run_jacobi
/// builds its DsmParams internally, so it reads the default).
struct CollectiveGuard {
  explicit CollectiveGuard(CollectiveMode m) { cluster::set_default_collective(m); }
  ~CollectiveGuard() { cluster::set_default_collective(CollectiveMode::kHost); }
};

/// Everything a run reports apart from its trace, flattened to bytes: the
/// figure numbers plus the metrics report of the snapshot with its trace
/// stripped.
std::string run_fingerprint(const cluster::SimParams& params,
                            const apps::JacobiConfig& config) {
  double checksum = 0;
  const apps::RunResult r = apps::run_jacobi(params, config, &checksum);
  obs::ReportPoint point;
  point.label = "collective-determinism";
  point.values.emplace_back("elapsed_cycles", static_cast<double>(r.elapsed_cycles));
  point.snapshot = r.snapshot;
  point.snapshot.traced = false;
  for (obs::NodeSnapshot& node : point.snapshot.nodes) {
    node.trace.clear();
    node.trace_recorded = 0;
    node.trace_dropped = 0;
  }
  std::ostringstream out;
  out.precision(17);
  out << r.elapsed << '|' << r.elapsed_cycles << '|' << checksum << '|'
      << r.hit_ratio_pct << '|' << r.compute_e9 << '|' << r.overhead_e9 << '|'
      << r.delay_e9 << '\n';
  const std::vector<obs::ReportPoint> points = {point};
  out << obs::run_report_json("test_collective", {{"app", "jacobi"}}, points);
  return std::move(out).str();
}

TEST(NicCollectiveDeterminism, TracingLeavesTheRunUnchangedOnEveryTopology) {
  const CollectiveGuard guard(CollectiveMode::kNic);
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 3;
  for (const atm::TopologyKind kind :
       {atm::TopologyKind::kBanyan, atm::TopologyKind::kClos, atm::TopologyKind::kTorus}) {
    cluster::SimParams params = apps::make_params(BoardKind::kCni, 8);
    params.fabric.topology = kind;
    const std::string base = run_fingerprint(params, config);
    params.obs.trace = true;
    EXPECT_EQ(base, run_fingerprint(params, config))
        << atm::topology_name(kind) << " moved when traced";
  }
}

TEST(NicCollectiveDeterminism, NicAndHostAgreeOnTheComputation) {
  // The collective mode must never change what the app computes — only how
  // long synchronization takes (nic strictly reshapes barrier traffic).
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 3;
  const cluster::SimParams params = apps::make_params(BoardKind::kCni, 8);
  double host_sum = 0;
  double nic_sum = 0;
  {
    const CollectiveGuard guard(CollectiveMode::kHost);
    apps::run_jacobi(params, config, &host_sum);
  }
  {
    const CollectiveGuard guard(CollectiveMode::kNic);
    apps::run_jacobi(params, config, &nic_sum);
  }
  EXPECT_EQ(host_sum, nic_sum);
}

// ---------------------------------------------------------------------------
// CLI knob

TEST(CollectiveCli, ParseAndName) {
  CollectiveMode m = CollectiveMode::kHost;
  EXPECT_TRUE(cluster::parse_collective("nic", m));
  EXPECT_EQ(m, CollectiveMode::kNic);
  EXPECT_TRUE(cluster::parse_collective("host", m));
  EXPECT_EQ(m, CollectiveMode::kHost);
  EXPECT_FALSE(cluster::parse_collective("tree", m));
  EXPECT_STREQ(cluster::collective_name(CollectiveMode::kNic), "nic");
  EXPECT_STREQ(cluster::collective_name(CollectiveMode::kHost), "host");
}

}  // namespace
}  // namespace cni
