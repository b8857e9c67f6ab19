#include "cluster/cluster.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/log.hpp"

namespace cni::cluster {
namespace {

/// Logger time hook: stamps log lines with the engine's simulated clock.
std::uint64_t engine_now(void* ctx) { return static_cast<sim::Engine*>(ctx)->now(); }

/// Contiguous node blocks per shard (DESIGN.md §12).
sim::ShardPlan plan_for(const SimParams& params) {
  return sim::ShardPlan::balanced(params.processors, params.sim_shards);
}

std::vector<std::unique_ptr<sim::Engine>> make_engines(std::uint32_t n) {
  std::vector<std::unique_ptr<sim::Engine>> engines;
  engines.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) engines.push_back(std::make_unique<sim::Engine>());
  return engines;
}

std::vector<sim::Engine*> raw_engines(const std::vector<std::unique_ptr<sim::Engine>>& owned) {
  std::vector<sim::Engine*> engines;
  engines.reserve(owned.size());
  for (const std::unique_ptr<sim::Engine>& e : owned) engines.push_back(e.get());
  return engines;
}

}  // namespace

Node::Node(sim::Engine& engine, atm::Fabric& fabric, const SimParams& params,
           atm::NodeId id, sim::NodeStats& stats, obs::NodeObs* obs)
    : engine_(engine),
      id_(id),
      bus_(engine, params.bus),
      page_table_(mem::PageGeometry(params.page_size)),
      cpu_(params.cpu_freq_hz, params.cache, bus_, page_table_, stats),
      is_cni_(params.board == BoardKind::kCni) {
  // Before the board: boards resolve their obs handles at construction.
  cpu_.set_obs(obs);
  if (is_cni_) {
    board_ = std::make_unique<core::CniBoard>(engine, fabric, cpu_, params.nic, id,
                                              params.cni,
                                              mem::PageGeometry(params.page_size));
  } else {
    board_ = std::make_unique<nic::StandardNic>(engine, fabric, cpu_, params.nic, id);
  }
}

core::CniBoard& Node::cni() {
  CNI_CHECK_MSG(is_cni_, "this node carries a standard NIC, not a CNI");
  return static_cast<core::CniBoard&>(*board_);
}

Cluster::Cluster(const SimParams& params)
    : params_(params),
      plan_(plan_for(params)),
      shard_engines_(make_engines(plan_.shards)),
      engines_(raw_engines(shard_engines_)),
      fabric_(params.fabric, plan_, engines_, fusion_ledger_),
      stats_(params.processors),
      obs_(params.processors, params.obs) {
  CNI_CHECK_MSG(params.processors >= 1, "a cluster needs at least one node");
  for (std::uint32_t i = 0; i < params.processors; ++i) {
    obs_.bind_node_stats(i, stats_.node(i));
    nodes_.push_back(std::make_unique<Node>(*engines_[plan_.shard_of(i)], fabric_, params_,
                                            i, stats_.node(i), &obs_.node(i)));
  }
}

sim::SimTime Cluster::run(util::FunctionRef<void(std::size_t, sim::SimThread&)> body) {
  // Every log line emitted while the engine runs carries its simulated time.
  // Thread-local install: parallel sweep jobs each stamp with their own
  // engine's clock; the coordinator runs shard 0 inline and each worker
  // thread installs its own shard's hook.
  const util::ScopedLogTime log_time(&engine_now, engines_.front());
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<sim::SimTime> finish(nodes_.size(), 0);
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads.push_back(std::make_unique<sim::SimThread>(
        node(i).engine(), "node" + std::to_string(i),
        [this, body, &finish, i](sim::SimThread& t) {
          body(i, t);
          node(i).cpu().sync(t);  // settle any trailing local charge
          finish[i] = node(i).engine().now();
        }));
  }
  epoch_stats_ = sim::EpochStats{};
  sim::EpochParams ep;
  ep.lookahead = fabric_.min_lookahead();
  ep.drain_horizon = fabric_.drain_horizon();
  ep.pending_bound = fabric_.pending_bound();
  // Named lambdas: FusedHooks borrows them for the whole run_epochs call.
  auto local_drain = [this](std::uint32_t s, sim::SimTime limit) {
    return fabric_.local_drain(s, limit);
  };
  auto local_min = [this](std::uint32_t s) { return fabric_.local_pending_min(s); };
  const sim::FusedHooks hooks{local_drain, local_min, fusion_ledger_};
  if (shard_prof_ != nullptr) shard_prof_->enable(plan_.shards);
  sim::run_epochs(engines_, ep, fabric_.lookahead_matrix(plan_), hooks,
                  [this](sim::SimTime limit) { return fabric_.drain(limit); },
                  &epoch_stats_, shard_prof_);
  if (shard_prof_ != nullptr) shard_prof_->finish();

  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (!threads[i]->finished()) {
      throw std::runtime_error("cluster deadlock: node " + std::to_string(i) +
                               " never finished (blocked waiting on an event "
                               "that will not arrive)");
    }
  }

  elapsed_ = 0;
  for (const sim::SimTime f : finish) elapsed_ = f > elapsed_ ? f : elapsed_;

  // Settle the delay accounts: whatever part of a node's elapsed time was
  // neither computation nor charged overhead was spent stalled on remote
  // events — the paper's "synch delay".
  const sim::Clock cpu(params_.cpu_freq_hz);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sim::NodeStats& st = stats_.node(i);
    const std::uint64_t total = cpu.to_cycles(finish[i]);
    const std::uint64_t busy = st.compute_cycles + st.synch_overhead_cycles;
    st.synch_delay_cycles = total > busy ? total - busy : 0;
  }
  return elapsed_;
}

std::uint64_t Cluster::elapsed_cpu_cycles() const {
  return sim::Clock(params_.cpu_freq_hz).to_cycles(elapsed_);
}

obs::Snapshot Cluster::snapshot() const {
  obs::Snapshot snap;
  snap.traced = params_.obs.trace;
  snap.nodes.reserve(nodes_.size());
  for (std::uint32_t i = 0; i < obs_.node_count(); ++i) {
    const obs::NodeObs& src = obs_.node(i);
    obs::NodeSnapshot node;
    node.node = i;
    src.metrics().for_each_counter([&node](const std::string& name, std::uint64_t v) {
      node.counters.push_back(obs::CounterSnapshot{name, v});
    });
    src.metrics().for_each_histogram([&node](const std::string& name, const obs::Hist& h) {
      obs::HistSnapshot hs;
      hs.name = name;
      hs.count = h.count();
      hs.sum = h.sum();
      hs.min = h.min();
      hs.max = h.max();
      hs.p50 = h.percentile(50.0);
      hs.p95 = h.percentile(95.0);
      hs.p99 = h.percentile(99.0);
      node.hists.push_back(std::move(hs));
    });
    src.metrics().for_each_gauge([&node](const std::string& name, const obs::Gauge& g) {
      node.gauges.push_back(obs::GaugeSnapshot{name, g.value(), g.max()});
    });
    node.trace_recorded = src.ring().recorded();
    node.trace_dropped = src.ring().dropped();
    if (snap.traced) {
      node.trace.reserve(src.ring().size());
      src.ring().for_each([&node](const obs::TraceRecord& r) { node.trace.push_back(r); });
    }
    snap.nodes.push_back(std::move(node));
  }
  return snap;
}

}  // namespace cni::cluster
