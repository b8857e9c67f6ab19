// Cluster assembly: N workstations on one ATM fabric.
//
// Builds, per node: memory bus + page table + host CPU + a network board
// (CNI or standard, per SimParams::board), all attached to one fabric of
// the topology SimParams::fabric names (banyan, Clos or torus); then runs
// one simulated thread per node on one event engine and settles the
// computation/overhead/delay accounts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atm/fabric.hpp"
#include "cluster/host.hpp"
#include "cluster/params.hpp"
#include "core/cni_board.hpp"
#include "nic/standard_nic.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "util/buf_pool.hpp"
#include "util/function_ref.hpp"

namespace cni::cluster {

/// One workstation: bus, page table, CPU and network board.
class Node {
 public:
  Node(sim::Engine& engine, atm::Fabric& fabric, const SimParams& params,
       atm::NodeId id, sim::NodeStats& stats, obs::NodeObs* obs);

  [[nodiscard]] atm::NodeId id() const { return id_; }
  [[nodiscard]] HostCpu& cpu() { return cpu_; }
  [[nodiscard]] nic::NicBoard& board() { return *board_; }

  /// The engine this node's events run on (the cluster's one engine).
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// The board as a CniBoard; check-fails on a standard-NIC cluster.
  [[nodiscard]] core::CniBoard& cni();

 private:
  sim::Engine& engine_;
  atm::NodeId id_;
  mem::MemoryBus bus_;
  mem::PageTable page_table_;
  HostCpu cpu_;
  std::unique_ptr<nic::NicBoard> board_;
  bool is_cni_;
};

/// The event count of a run, under the name perfbench/worker.cpp reads
/// (`Cluster::epoch_stats().events_total`, `apps::RunResult::parsim`) until a
/// benchmark PR renames it.
struct EventCount {
  std::uint64_t events_total = 0;  ///< events the engine executed in the run
};

class Cluster {
 public:
  explicit Cluster(const SimParams& params);

  [[nodiscard]] const SimParams& params() const { return params_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] atm::Fabric& fabric() { return fabric_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::StatsRegistry& stats() { return stats_; }
  [[nodiscard]] obs::RunObs& obs() { return obs_; }

  // Kept for perfbench/worker.cpp, which records the engine mode and reads
  // the event count through these names, until a benchmark PR renames them.
  [[nodiscard]] bool sharded() const { return false; }
  [[nodiscard]] std::uint32_t shards() const { return 1; }
  [[nodiscard]] EventCount epoch_stats() const { return events_; }

  /// Copies each node's NodeStats accounts, histograms, gauges and (when
  /// tracing) trace ring into a Snapshot that outlives the cluster.
  [[nodiscard]] obs::Snapshot snapshot() const;

  /// Runs `body(node_index, thread)` on every node concurrently (in
  /// simulated time) and returns the simulated duration of the whole run.
  /// Afterwards each node's synch_delay account holds the residual
  /// elapsed - compute - overhead. Throws on deadlock.
  sim::SimTime run(util::FunctionRef<void(std::size_t, sim::SimThread&)> body);

  /// Elapsed time of the last run, in host CPU cycles.
  [[nodiscard]] std::uint64_t elapsed_cpu_cycles() const;

 private:
  util::BufCachePurge buf_cache_purge_;  // first, so it is destroyed last
  SimParams params_;
  sim::Engine engine_;  // before fabric_, which schedules deliveries on it
  atm::Fabric fabric_;
  sim::StatsRegistry stats_;
  obs::RunObs obs_;  // before nodes_: boards grab their NodeObs at construction
  EventCount events_;
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::SimTime elapsed_ = 0;
};

}  // namespace cni::cluster
