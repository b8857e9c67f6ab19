// Observability context: one NodeObs per simulated node, one RunObs per
// cluster, and the emit macros every instrumentation site goes through.
//
// Trace records have one off switch: Options::trace (CNI_TRACE env /
// --trace-out). When off, a trace site is one pointer test and one
// predictable branch. Histograms and gauges record whenever their handle is
// set.
//
// The macros deliberately gate on the NodeObs pointer so unit tests can
// instrument components without a full cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/options.hpp"
#include "obs/taxonomy.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace cni::obs {

/// One node's trace ring + metrics registry.
class NodeObs {
 public:
  /// An untraced node never records (every emit macro checks tracing()), so
  /// its ring is one slot rather than trace_capacity zero-filled records.
  NodeObs(std::uint32_t node, const Options& opts)
      : ring_(opts.trace ? opts.trace_capacity : 1),
        node_(static_cast<std::uint16_t>(node)), tracing_(opts.trace) {}

  [[nodiscard]] bool tracing() const { return tracing_; }
  [[nodiscard]] std::uint32_t node() const { return node_; }
  [[nodiscard]] const TraceRing& ring() const { return ring_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  // Emit paths — call through the CNI_TRACE_* macros, not directly, so an
  // untraced node evaluates no argument.
  void instant(sim::SimTime t, Component c, Event e, std::uint64_t a0, std::uint64_t a1) {
    record(t, 0, c, e, Kind::kInstant, a0, a1);
  }
  void span(sim::SimTime t0, sim::SimTime t1, Component c, Event e, std::uint64_t a0,
            std::uint64_t a1) {
    record(t0, t1 >= t0 ? t1 - t0 : 0, c, e, Kind::kSpan, a0, a1);
  }
  /// Causal-tree edge: a span whose arg slots carry (self, parent) tokens.
  void causal(sim::SimTime t0, sim::SimTime t1, Stage stage, std::uint64_t self,
              std::uint64_t parent) {
    record(t0, t1 >= t0 ? t1 - t0 : 0, causal_component(stage), causal_event(stage),
           Kind::kCausal, self, parent);
  }

 private:
  void record(sim::SimTime t, sim::SimDuration dur, Component c, Event e, Kind k,
              std::uint64_t a0, std::uint64_t a1) {
    TraceRecord r;
    r.time = t;
    r.dur = dur;
    r.arg0 = a0;
    r.arg1 = a1;
    r.node = node_;
    r.component = c;
    r.event = e;
    r.kind = k;
    ring_.record(r);
  }

  TraceRing ring_;
  Metrics metrics_;
  std::uint16_t node_;
  bool tracing_;
};

/// Per-run (per-cluster) observability: one NodeObs per node.
class RunObs {
 public:
  RunObs(std::uint32_t nodes, const Options& opts) : opts_(opts) {
    nodes_.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      // cni-lint: allow(hot-path-alloc): one NodeObs per node at run setup;
      // recording itself never allocates (trace.hpp).
      nodes_.push_back(std::make_unique<NodeObs>(i, opts));
    }
  }

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] NodeObs& node(std::uint32_t i) { return *nodes_.at(i); }
  [[nodiscard]] const NodeObs& node(std::uint32_t i) const { return *nodes_.at(i); }

 private:
  Options opts_;
  std::vector<std::unique_ptr<NodeObs>> nodes_;  // stable NodeObs addresses
};

}  // namespace cni::obs

// ---------------------------------------------------------------------------
// Emit macros. Each evaluates its remaining arguments only when its handle
// is non-null and, for trace records, the node is tracing.
// ---------------------------------------------------------------------------

// Note: the context parameter is `ctx_`, not `obs` — a parameter named `obs`
// would capture the `obs` token inside `::cni::obs::NodeObs` during expansion.

#define CNI_TRACE_INSTANT(ctx_, t, comp, evt, a0, a1)                             \
  do {                                                                            \
    ::cni::obs::NodeObs* cni_obs_o_ = (ctx_);                                     \
    if (cni_obs_o_ != nullptr && cni_obs_o_->tracing()) {                         \
      cni_obs_o_->instant((t), (comp), (evt), (a0), (a1));                        \
    }                                                                             \
  } while (0)

#define CNI_TRACE_SPAN(ctx_, t0, t1, comp, evt, a0, a1)                           \
  do {                                                                            \
    ::cni::obs::NodeObs* cni_obs_o_ = (ctx_);                                     \
    if (cni_obs_o_ != nullptr && cni_obs_o_->tracing()) {                         \
      cni_obs_o_->span((t0), (t1), (comp), (evt), (a0), (a1));                    \
    }                                                                             \
  } while (0)

#define CNI_TRACE_CAUSAL(ctx_, t0, t1, stage, self, parent)                       \
  do {                                                                            \
    ::cni::obs::NodeObs* cni_obs_o_ = (ctx_);                                     \
    if (cni_obs_o_ != nullptr && cni_obs_o_->tracing()) {                         \
      cni_obs_o_->causal((t0), (t1), (stage), (self), (parent));                  \
    }                                                                             \
  } while (0)

/// Marks an outgoing frame's journey as traced (keeps any parent token a
/// protocol layer already stamped). A nonzero Frame::trace is the flag the
/// fabric and the receiving board key their causal collection on.
#define CNI_TRACE_MINT(ctx_, frame_)                                              \
  do {                                                                            \
    ::cni::obs::NodeObs* cni_obs_o_ = (ctx_);                                     \
    if (cni_obs_o_ != nullptr && cni_obs_o_->tracing() && (frame_).trace == 0) {  \
      (frame_).trace = ::cni::obs::kCausalTracedBit;                              \
    }                                                                             \
  } while (0)

/// Records into a pre-resolved histogram handle (null-safe).
#define CNI_OBS_HIST(hist, value)                                                 \
  do {                                                                            \
    ::cni::obs::Hist* cni_obs_h_ = (hist);                                        \
    if (cni_obs_h_ != nullptr) cni_obs_h_->record(value);                         \
  } while (0)

/// Sets a pre-resolved gauge handle (null-safe).
#define CNI_OBS_GAUGE_SET(gauge, value)                                           \
  do {                                                                            \
    ::cni::obs::Gauge* cni_obs_g_ = (gauge);                                      \
    if (cni_obs_g_ != nullptr) cni_obs_g_->set(value);                            \
  } while (0)
