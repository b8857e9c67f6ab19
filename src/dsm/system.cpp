#include "dsm/system.hpp"

#include "util/check.hpp"
#include "util/units.hpp"

namespace cni::dsm {

namespace {

atm::CollectiveTree build_collective_tree(cluster::Cluster& cluster,
                                          const DsmParams& params) {
  const auto nodes = static_cast<std::uint32_t>(cluster.size());
  if (params.collective == cluster::CollectiveMode::kHost) {
    // Host mode: barriers keep the seed's centralized manager protocol;
    // reduce runs the same tree machinery over a star at node 0.
    return atm::make_star_tree(nodes, 0);
  }
  // The combine step runs on the 33 MHz network processor. A tree edge adds
  // the full store-and-forward pipeline — the child's frame tx, the parent's
  // frame rx, the PATHFINDER dispatch and the combine handler's base work —
  // while each extra child slot adds only the serialized downlink occupancy
  // of one more arriving frame (the handler work overlaps the DMA-driven
  // reception of the next child's frame). Evaluated against the topology's
  // zero-load distances this is what differentiates the fabrics: the banyan's
  // flat 500 ns keeps trees narrow, while the Clos cross-block and torus
  // multi-hop distances up-weight depth and buy wider fan-in (DESIGN.md §16).
  const sim::Clock nic(cluster.params().nic.nic_freq_hz);
  const sim::SimDuration per_hop = nic.cycles(cluster.params().nic.per_frame_tx_cycles +
                                              cluster.params().nic.per_frame_rx_cycles +
                                              cluster.params().nic.aih_dispatch_cycles +
                                              params.handler_base_cycles);
  const sim::SimDuration per_child = nic.cycles(cluster.params().nic.per_frame_rx_cycles);
  return atm::make_collective_tree(cluster.fabric().topology(), nodes, per_hop,
                                   per_child);
}

}  // namespace

DsmSystem::DsmSystem(cluster::Cluster& cluster, DsmParams params)
    : cluster_(cluster),
      params_(params),
      coll_tree_(build_collective_tree(cluster, params_)),
      geo_(cluster.params().page_size),
      zero_page_(util::Buf::alloc_zeroed(geo_.size())) {
  runtimes_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    // cni-lint: allow(hot-path-alloc): one DsmRuntime per node at system
    // construction — never on the per-message path.
    auto rt = std::make_unique<DsmRuntime>(*this, static_cast<std::uint32_t>(i));
    runtimes_.push_back(std::move(rt));
  }
  for (auto& rt : runtimes_) rt->install_handlers();
}

mem::VAddr DsmSystem::alloc_with_homes(std::uint64_t bytes, const std::string& name,
                                       const std::vector<std::uint32_t>& page_homes) {
  (void)name;
  CNI_CHECK(bytes > 0);
  const mem::VAddr base = mem::kSharedBase + next_offset_;
  next_offset_ += util::align_up(bytes, geo_.size());
  homes_.insert(homes_.end(), page_homes.begin(), page_homes.end());
  return base;
}

mem::VAddr DsmSystem::alloc(std::uint64_t bytes, const std::string& name) {
  const std::uint64_t npages = util::ceil_div(bytes, geo_.size());
  std::vector<std::uint32_t> homes(npages);
  for (std::uint64_t i = 0; i < npages; ++i) {
    homes[i] = static_cast<std::uint32_t>((homes_.size() + i) % nodes());
  }
  return alloc_with_homes(bytes, name, homes);
}

mem::VAddr DsmSystem::alloc_blocked(std::uint64_t bytes, const std::string& name) {
  const std::uint64_t npages = util::ceil_div(bytes, geo_.size());
  std::vector<std::uint32_t> homes(npages);
  for (std::uint64_t i = 0; i < npages; ++i) {
    homes[i] = static_cast<std::uint32_t>(i * nodes() / npages);
  }
  return alloc_with_homes(bytes, name, homes);
}

mem::VAddr DsmSystem::alloc_at(std::uint64_t bytes, const std::string& name,
                               std::uint32_t home) {
  CNI_CHECK(home < nodes());
  const std::uint64_t npages = util::ceil_div(bytes, geo_.size());
  return alloc_with_homes(bytes, name, std::vector<std::uint32_t>(npages, home));
}

}  // namespace cni::dsm
