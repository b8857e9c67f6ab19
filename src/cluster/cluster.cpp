#include "cluster/cluster.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/log.hpp"

namespace cni::cluster {
namespace {

/// Logger time hook: stamps log lines with the engine's simulated clock.
std::uint64_t engine_now(void* ctx) { return static_cast<sim::Engine*>(ctx)->now(); }

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
      fabric_(params.fabric, params.processors, engine_),
      stats_(params.processors),
      obs_(params.processors, params.obs) {
  CNI_CHECK_MSG(params.processors >= 1, "a cluster needs at least one node");
  for (std::uint32_t i = 0; i < params.processors; ++i) {
    nodes_.push_back(std::make_unique<Node>(engine_, fabric_, params_, i, stats_.node(i),
                                            &obs_.node(i)));
  }
}

sim::SimTime Cluster::run(util::FunctionRef<void(std::size_t, sim::SimThread&)> body) {
  // Every log line emitted while the engine runs carries its simulated time.
  // Thread-local install: parallel sweep jobs each stamp with their own
  // engine's clock.
  const util::ScopedLogTime log_time(&engine_now, &engine_);
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<sim::SimTime> finish(nodes_.size(), 0);
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads.push_back(std::make_unique<sim::SimThread>(
        engine_, "node" + std::to_string(i),
        [this, body, &finish, i](sim::SimThread& t) {
          body(i, t);
          node(i).cpu().sync(t);  // settle any trailing local charge
          finish[i] = engine_.now();
        }));
  }

  // The run loop (DESIGN.md §12): route every buffered transfer whose head
  // is final, then run the window of events no unrouted transfer can reach.
  sim::EpochParams window;
  window.lookahead = fabric_.min_lookahead();
  window.drain_horizon = fabric_.drain_horizon();
  window.pending_bound = fabric_.pending_bound();
  // Each window advances by at least the lookahead (drain_horizon +
  // pending_bound == lookahead), so the loop progresses only if it is positive.
  CNI_CHECK_MSG(window.lookahead > 0, "the fabric's cross-node latency must be positive");
  const std::uint64_t events_before = engine_.events_executed();
  sim::SimTime ran_below = 0;  // every event below this time has run
  for (;;) {
    const sim::SimTime pending =
        fabric_.drain(sim::sat_add(ran_below, window.drain_horizon));
    const sim::SimTime next_event = engine_.next_time();
    if (next_event == sim::kNever && pending == sim::kNever) break;
    ran_below = sim::next_epoch_end(next_event, pending, window);
    engine_.run_before(ran_below);
  }
  events_.events_total = engine_.events_executed() - events_before;

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
    node.stats = stats_.node(i);
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
