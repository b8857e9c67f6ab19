// Cluster-wide DSM system: the shared region and one runtime per node.
//
// The paper: "A fixed portion of the processor address space was allocated
// to distributed shared memory with shared addresses being mapped into this
// allocated memory space." Allocation happens once, before the application
// threads start, and produces the same virtual layout on every node; each
// page has a *home* (its initial owner), chosen by the allocation policy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "atm/coll_tree.hpp"
#include "cluster/cluster.hpp"
#include "dsm/msg.hpp"
#include "dsm/runtime.hpp"

namespace cni::dsm {

class DsmSystem {
 public:
  explicit DsmSystem(cluster::Cluster& cluster, DsmParams params = {});

  // ---- Allocation (before the run) ----

  /// Pages homed round-robin across nodes.
  mem::VAddr alloc(std::uint64_t bytes, const std::string& name);

  /// Pages homed in contiguous blocks: node i homes the i-th P-th of the
  /// region (matches block-partitioned apps like Jacobi).
  mem::VAddr alloc_blocked(std::uint64_t bytes, const std::string& name);

  /// Every page homed at one node (master-initialized data).
  mem::VAddr alloc_at(std::uint64_t bytes, const std::string& name, std::uint32_t home);

  // ---- Accessors ----
  [[nodiscard]] DsmRuntime& runtime(std::size_t i) { return *runtimes_.at(i); }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const DsmParams& params() const { return params_; }
  /// The simulation's one copy of every interval record.
  [[nodiscard]] IntervalLog& interval_log() { return log_; }
  /// A zero-filled page, shared as the twin of every frame that still holds
  /// only zeros when it is first written (DsmRuntime::write_upgrade).
  [[nodiscard]] const util::Buf& zero_page() const { return zero_page_; }
  [[nodiscard]] std::uint32_t nodes() const { return static_cast<std::uint32_t>(runtimes_.size()); }

  [[nodiscard]] const mem::PageGeometry& geometry() const { return geo_; }
  [[nodiscard]] PageId page_count() const { return homes_.size(); }
  [[nodiscard]] std::uint32_t home_of(PageId p) const { return homes_.at(p); }
  [[nodiscard]] std::uint32_t barrier_manager() const { return 0; }
  [[nodiscard]] std::uint32_t lock_home(std::uint32_t lock) const { return lock % nodes(); }
  /// The combining-tree shape every collective in this system uses: a
  /// topology-derived k-ary tree rooted at node 0 in kNic mode, a star at
  /// the barrier manager in kHost mode. Built once in the constructor from
  /// the fabric's zero-load distances — a pure function of (topology, N,
  /// handler costs).
  [[nodiscard]] const atm::CollectiveTree& collective_tree() const { return coll_tree_; }
  [[nodiscard]] cluster::CollectiveMode collective() const { return params_.collective; }

  /// Page index of a shared virtual address (must be in the shared region).
  [[nodiscard]] PageId page_of_va(mem::VAddr va) const {
    return geo_.page_of(va - mem::kSharedBase);
  }
  [[nodiscard]] mem::VAddr va_of_page(PageId p) const {
    return mem::kSharedBase + geo_.base_of(p);
  }

 private:
  mem::VAddr alloc_with_homes(std::uint64_t bytes, const std::string& name,
                              const std::vector<std::uint32_t>& page_homes);

  cluster::Cluster& cluster_;
  DsmParams params_;
  atm::CollectiveTree coll_tree_;
  mem::PageGeometry geo_;
  IntervalLog log_;    ///< before runtimes_: every view of it outlives them
  util::Buf zero_page_;
  std::vector<std::unique_ptr<DsmRuntime>> runtimes_;
  std::vector<std::uint32_t> homes_;  ///< per shared page
  std::uint64_t next_offset_ = 0;     ///< allocation cursor (bytes into region)
};

}  // namespace cni::dsm
