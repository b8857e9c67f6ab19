// Topology-aware combining trees for NIC-resident collectives.
//
// A CollectiveTree is the static reduction/broadcast shape the DSM layer
// installs once per run: node v sends its combined contribution to
// parent[v], the root turns around, and releases flow back down children[].
// The shape is a contiguous-range k-ary tree — the root owns [0, N), the
// tail [1, N) is split into k near-even contiguous chunks, each chunk's
// first id becomes a child, and the chunks recurse. Contiguous subtrees
// keep parent/child pairs close under every supported topology (same Clos
// leaf block, adjacent torus coordinates), which is what makes the fan-in
// choice below meaningful.
//
// The fan-in k is picked per topology from the zero-load distances: for
// each candidate k we evaluate the deterministic up-sweep critical path
//
//   T(leaf) = 0
//   T(v)    = max over children c of (T(c) + min_latency(c, v) + per_hop)
//             + child_count(v) * per_child
//
// and keep the k with the smallest T(root), ties to the smaller k. A flat
// banyan (uniform distances) pays per_child for every extra slot and so
// favours narrow trees as N grows; Clos and torus amortize their taller
// hop latency over wide fan-in at small N and diverge from the banyan
// choice. Everything here is a pure function of (topology, N, costs) — no
// simulation state — so every run on the same shape builds the same tree.
#pragma once

#include <cstdint>
#include <vector>

#include "atm/topology.hpp"
#include "sim/time.hpp"

namespace cni::atm {

struct CollectiveTree {
  std::uint32_t nodes = 0;
  std::uint32_t fanin = 0;  ///< chosen k (cap on children per node)
  std::uint32_t depth = 0;  ///< edges on the longest root-to-leaf path
  /// parent[v] for every node; parent[root] == root (node 0 for k-ary trees).
  std::vector<std::uint32_t> parent;
  /// children[v], ascending node ids (the deterministic down-sweep order).
  std::vector<std::vector<std::uint32_t>> children;

  /// Deterministic up-sweep critical path under the cost model above.
  [[nodiscard]] sim::SimDuration up_sweep_cost(const Topology& topo,
                                               sim::SimDuration per_hop,
                                               sim::SimDuration per_child) const;
};

/// Builds the contiguous-range k-ary tree over `nodes` nodes with the given
/// fan-in. `fanin` is clamped to [1, nodes-1] (single-node trees are just
/// the root).
[[nodiscard]] CollectiveTree make_kary_tree(std::uint32_t nodes, std::uint32_t fanin);

/// Picks the fan-in from the topology's distances (candidates 2, 4, 8, 16,
/// 32, capped below `nodes`) and returns the winning tree. `fanin_override`
/// != 0 skips the search and builds that exact fan-in — the A/B knob the
/// identity tests use.
[[nodiscard]] CollectiveTree make_collective_tree(const Topology& topo,
                                                  std::uint32_t nodes,
                                                  sim::SimDuration per_hop,
                                                  sim::SimDuration per_child,
                                                  std::uint32_t fanin_override = 0);

/// Flat star rooted at `root`: every other node is a direct child. The
/// host-mode reduce/broadcast shape (one centralized manager, like the seed
/// barrier protocol).
[[nodiscard]] CollectiveTree make_star_tree(std::uint32_t nodes, std::uint32_t root);

}  // namespace cni::atm
