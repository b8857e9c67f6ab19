#include "atm/coll_tree.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cni::atm {

namespace {

/// Assigns the contiguous range [first, first + count) under `root`:
/// `root` itself is the first id, the rest splits into <= fanin near-even
/// contiguous chunks whose first ids become root's children.
void build_range(CollectiveTree& tree, std::uint32_t root, std::uint32_t count,
                 std::uint32_t fanin, std::uint32_t depth) {
  tree.depth = std::max(tree.depth, depth);
  std::uint32_t rest = count - 1;  // ids after the root itself
  std::uint32_t next = root + 1;
  std::uint32_t slots = std::min(fanin, rest);
  for (std::uint32_t s = 0; s < slots; ++s) {
    // Near-even split: earlier chunks take the remainder, one extra each.
    const std::uint32_t chunk = rest / (slots - s) + (rest % (slots - s) != 0 ? 1 : 0);
    tree.parent[next] = root;
    tree.children[root].push_back(next);
    build_range(tree, next, chunk, fanin, depth + 1);
    next += chunk;
    rest -= chunk;
  }
  CNI_CHECK(rest == 0);
}

}  // namespace

sim::SimDuration CollectiveTree::up_sweep_cost(const Topology& topo,
                                               sim::SimDuration per_hop,
                                               sim::SimDuration per_child) const {
  // Leaves cost 0; evaluate parents after children. Node ids inside a
  // subtree are contiguous and children have larger ids than their parent,
  // so a reverse id sweep is a valid bottom-up order.
  std::vector<sim::SimDuration> t(nodes, 0);
  for (std::uint32_t v = nodes; v-- > 0;) {
    sim::SimDuration worst = 0;
    for (const std::uint32_t c : children[v]) {
      worst = std::max(worst, t[c] + topo.min_latency(c, v) + per_hop);
    }
    t[v] = worst + static_cast<sim::SimDuration>(children[v].size()) * per_child;
  }
  std::uint32_t root = 0;
  while (parent[root] != root) root = parent[root];
  return t[root];
}

CollectiveTree make_kary_tree(std::uint32_t nodes, std::uint32_t fanin) {
  CNI_CHECK(nodes >= 1);
  CollectiveTree tree;
  tree.nodes = nodes;
  tree.fanin = nodes > 1 ? std::min(std::max(fanin, 1u), nodes - 1) : 1;
  tree.parent.assign(nodes, 0);
  tree.children.assign(nodes, {});
  build_range(tree, 0, nodes, tree.fanin, 0);
  return tree;
}

CollectiveTree make_collective_tree(const Topology& topo, std::uint32_t nodes,
                                    sim::SimDuration per_hop,
                                    sim::SimDuration per_child) {
  if (nodes <= 2) return make_kary_tree(nodes, 1);
  static constexpr std::uint32_t kCandidates[] = {2, 4, 8, 16, 32};
  CollectiveTree best;
  sim::SimDuration best_cost = 0;
  for (const std::uint32_t k : kCandidates) {
    if (k >= nodes) break;  // nodes >= 3 here, so k = 2 always runs
    CollectiveTree cand = make_kary_tree(nodes, k);
    const sim::SimDuration cost = cand.up_sweep_cost(topo, per_hop, per_child);
    if (best.nodes == 0 || cost < best_cost) {
      best = std::move(cand);
      best_cost = cost;
    }
  }
  return best;
}

CollectiveTree make_star_tree(std::uint32_t nodes, std::uint32_t root) {
  CNI_CHECK(nodes >= 1 && root < nodes);
  CollectiveTree tree;
  tree.nodes = nodes;
  tree.fanin = nodes > 1 ? nodes - 1 : 1;
  tree.depth = nodes > 1 ? 1 : 0;
  tree.parent.assign(nodes, root);
  tree.children.assign(nodes, {});
  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (v != root) tree.children[root].push_back(v);
  }
  return tree;
}

}  // namespace cni::atm
