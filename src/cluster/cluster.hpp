// Cluster assembly: N workstations on one ATM switch.
//
// Builds, per node: memory bus + page table + host CPU + a network board
// (CNI or standard, per SimParams::board), all attached to a shared banyan
// fabric; then runs one simulated thread per node on the epoch scheduler
// (sim::run_epochs) and settles the computation/overhead/delay accounts.
#pragma once

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
#include "sim/shard_profiler.hpp"
#include "sim/sharded.hpp"
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

  /// The engine this node's events run on: its shard's engine. Node-local
  /// scheduling (board dispatch, DSM handlers) must go through this.
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

class Cluster {
 public:
  explicit Cluster(const SimParams& params);

  [[nodiscard]] const SimParams& params() const { return params_; }
  /// Shard 0's engine. Nodes of other shards schedule elsewhere: go through
  /// Node::engine() for anything node-local.
  [[nodiscard]] sim::Engine& engine() { return *engines_.front(); }
  [[nodiscard]] atm::Fabric& fabric() { return fabric_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::StatsRegistry& stats() { return stats_; }
  [[nodiscard]] obs::RunObs& obs() { return obs_; }

  /// Always true: every cluster runs on the epoch scheduler. Kept for
  /// callers that record the engine mode.
  [[nodiscard]] bool sharded() const { return true; }
  /// Effective shard count (SimParams::sim_shards after clamping).
  [[nodiscard]] std::uint32_t shards() const { return plan_.shards; }
  /// Epoch/event counts of the last run.
  [[nodiscard]] const sim::EpochStats& epoch_stats() const { return epoch_stats_; }

  /// Opt-in wall-time attribution: run() enables `prof` with the shard count
  /// and closes it after the epoch loop returns. Telemetry only — simulated
  /// results are byte-identical with or without it. Pass null to detach.
  void set_shard_profiler(sim::ShardProfiler* prof) { shard_prof_ = prof; }

  /// Materializes every bound counter, histogram, gauge and (when tracing)
  /// the trace rings into a Snapshot that outlives the cluster.
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
  // Shard s's nodes schedule on engines_[s]. Plan, engines and ledger come
  // before fabric_, which binds all three at construction.
  sim::ShardPlan plan_;
  std::vector<std::unique_ptr<sim::Engine>> shard_engines_;
  std::vector<sim::Engine*> engines_;  ///< shard_engines_, as run_epochs takes them
  // The fabric records barrier-requiring sends here; run() passes it to the
  // epoch runner, which re-arms it per fused epoch.
  sim::FusionLedger fusion_ledger_;
  atm::Fabric fabric_;
  sim::StatsRegistry stats_;
  obs::RunObs obs_;  // before nodes_: boards grab their NodeObs at construction
  sim::EpochStats epoch_stats_;
  sim::ShardProfiler* shard_prof_ = nullptr;  ///< borrowed; see set_shard_profiler
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::SimTime elapsed_ = 0;
};

}  // namespace cni::cluster
