// Conservative parallel-in-run simulation: lookahead-sharded event engines.
//
// The cluster's nodes are partitioned into K shards, each owning a private
// sim::Engine, advanced in lock-step *epochs*. The fabric's fixed minimum
// cross-node latency (switch pipeline + two propagation legs) is a guaranteed
// lookahead window L: an event executed at time t cannot make anything happen
// on another shard before t + L, so every shard may run the events of
// [E, E + L) without hearing from its peers — Chandy–Misra conservatism with
// a lookahead window instead of per-link null messages.
//
// Three mechanisms close the gap between event-parallelism and wall-clock
// speedup (DESIGN.md §12):
//
//  * Per-pair lookahead (LookaheadMatrix): the fabric exports how soon an
//    event on shard r can reach shard c, and the epoch bound takes the
//    minimum only over shards that actually hold pending events.
//  * Epoch fusion (FusionLedger): while no transfer needs the global merge,
//    shards free-run through fixed-width sub-windows synchronized by padded
//    per-shard progress words — no barrier at all. Intra-shard traffic is
//    routed by the owning shard (legal for aligned plans, see
//    ShardPlan::aligned); the first barrier-requiring send deterministically
//    ends the epoch one sub-window later.
//  * Cheap barriers: a centralized sense-reversing barrier (generalized to a
//    generation counter) whose arrival words are cache-line padded per
//    shard, so the close of an epoch costs two release/acquire edges and no
//    shared fetch_add cacheline ping-pong.
//
// Cross-shard frame transfers are buffered during an epoch and drained at the
// barrier in one canonical order — (head-at-switch time, source node, per-
// source send sequence), every component derived from source-local state — so
// the merged event order, and therefore every figure number, trace export and
// metrics report, is bit-identical for every K, every thread schedule and
// every epoch schedule. The determinism argument is spelled out in
// DESIGN.md §12. K = 1 runs the same algorithm inline, with no threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/function_ref.hpp"
#include "util/thread_annotations.hpp"

namespace cni::sim {

class ShardProfiler;  // sim/shard_profiler.hpp — opt-in wall-time attribution

/// Contiguous-block assignment of `nodes` simulated nodes to `shards`
/// engines. Blocks (not round-robin) keep DSM neighbours — which exchange
/// the most frames — inside one shard where their traffic needs no barrier.
struct ShardPlan {
  std::uint32_t shards = 1;
  std::uint32_t nodes = 0;

  /// Clamps the requested shard count into [1, nodes].
  [[nodiscard]] static ShardPlan balanced(std::uint32_t nodes, std::uint32_t shards);

  /// Which shard owns `node`: the first (nodes % shards) shards take one
  /// extra node each, so block sizes differ by at most one.
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t node) const;

  /// Number of nodes in `shard`.
  [[nodiscard]] std::uint32_t count(std::uint32_t shard) const;

  /// True when every shard owns an equal, power-of-two-sized, power-of-two-
  /// aligned block of node ids. Then each block is exactly the set of ports
  /// sharing their upper address bits, and the banyan's butterfly wiring
  /// (atm::BanyanSwitch::path_resource: destination high bits | source low
  /// bits) gives intra-block paths of *different* blocks disjoint element
  /// outputs at every stage — so shards may route their own intra-block
  /// transfers concurrently, race-free and without reordering any shared
  /// resource. Unaligned plans simply treat every send as cross-shard.
  [[nodiscard]] bool aligned() const;
};

/// Epoch geometry, derived from the interconnect timing (atm::Fabric exports
/// these; see Fabric::min_lookahead).
struct EpochParams {
  /// L: minimum latency from a send event to any cross-shard effect. Also
  /// the fused-epoch sub-window width W (any W <= L is sound; W = L maximizes
  /// the work per progress-word handshake).
  SimDuration lookahead = 0;
  /// A transfer buffered with head-at-switch time H is *final* — no later
  /// send can precede it — once every shard passed H - drain_horizon.
  SimDuration drain_horizon = 0;
  /// A buffered head at H cannot deliver before H + pending_bound.
  SimDuration pending_bound = 0;
};

/// Per-shard-pair lookahead bounds: entry (r, c) is how soon an event on
/// shard r can affect shard c. For the single-stage banyan every cross pair
/// costs the same (switch pipeline + two propagation legs) so the matrix is
/// uniform; Clos and torus fabrics give distant pairs genuinely more slack.
/// Diagonal entries are kUnbounded: intra-shard causality is the engine's own
/// (time, seq) order and never constrains the epoch bound.
struct LookaheadMatrix {
  /// Diagonal sentinel; also what out_bound returns for a 1-shard matrix.
  static constexpr SimDuration kUnbounded = ~0ull;

  std::uint32_t shards = 1;
  std::vector<SimDuration> entries;  ///< shards x shards, row-major

  [[nodiscard]] SimDuration at(std::uint32_t r, std::uint32_t c) const {
    return entries[static_cast<std::size_t>(r) * shards + c];
  }

  /// Min over destinations c != r: how long shard r's next event stays
  /// invisible to every peer.
  [[nodiscard]] SimDuration out_bound(std::uint32_t r) const {
    SimDuration best = kUnbounded;
    for (std::uint32_t c = 0; c < shards; ++c) {
      if (c == r) continue;
      const SimDuration d = at(r, c);
      best = d < best ? d : best;
    }
    return best;
  }
};

/// Deterministic run statistics (no wall clocks: every count is a property
/// of the simulation content and the shard plan, not of the host or of the
/// thread schedule).
struct EpochStats {
  std::uint64_t epochs = 0;
  std::uint64_t events_total = 0;  ///< summed over shards; K-independent
  /// Sum over epochs of the busiest shard's event count: the length of the
  /// critical path an ideal K-way parallel execution cannot beat. The ratio
  /// events_total / critical_path_events is the run's event-parallelism.
  std::uint64_t critical_path_events = 0;
  /// Epochs run under the fused protocol: sub-windows synchronized by
  /// progress words, no global barrier until the epoch ends.
  std::uint64_t fused_epochs = 0;
  /// Full cross-shard rendezvous actually paid. Always <= epochs; zero for
  /// K = 1 and for epochs where only shard 0 had work.
  std::uint64_t barriers = 0;
};

/// a + b, saturating at kNever (so "no pending work" windows stay kNever).
[[nodiscard]] constexpr SimTime sat_add(SimTime a, SimDuration b) {
  return a > kNever - b ? kNever : a + b;
}

/// Pure epoch math: the end of the next window given the earliest pending
/// event across all shards (t_min), the earliest still-buffered transfer head
/// (pending_min, kNever when none) and the fabric-derived margins. Every
/// input is K-independent, so the epoch schedule is too.
[[nodiscard]] constexpr SimTime next_epoch_end(SimTime t_min, SimTime pending_min,
                                               const EpochParams& p) {
  const SimTime by_events = sat_add(t_min, p.lookahead);
  const SimTime by_pending = sat_add(pending_min, p.pending_bound);
  return by_events < by_pending ? by_events : by_pending;
}

/// Matrix-aware epoch bound: the minimum over shards that actually hold
/// pending events of (next event time + that shard's outgoing lookahead),
/// still capped by the buffered-transfer bound. With a uniform matrix this
/// equals the global-lookahead bound exactly; with a distance-dependent one,
/// idle or far-away shards stop shrinking everyone's window.
[[nodiscard]] SimTime next_epoch_end(std::span<const SimTime> t_next,
                                     const LookaheadMatrix& la, SimTime pending_min,
                                     const EpochParams& p);

/// Shared ledger coordinating one *fused* epoch. Shards run fixed-width
/// sub-windows [base + jW, base + (j+1)W), synchronizing only through padded
/// per-shard progress words; every barrier-requiring send (cross-shard — or
/// any send at all under an unaligned plan) is recorded here with the
/// sub-window index of its earliest possible effect. The epoch then ends,
/// identically for every thread schedule, at the first window boundary one
/// past the earliest recorded send: stop_window() = min send window + 1.
/// The recording shard publishes its progress word *after* note_send (release
/// on the progress store), so any peer that entered window j has observed
/// every send recorded in windows < j — that acquire/release pair is the
/// whole synchronization of the stop rule.
class FusionLedger {
 public:
  /// stop_window() while no send is recorded: the epoch never needs a drain.
  static constexpr std::uint64_t kNoStop = ~0ull;

  /// The coordinator role: held exclusively between epochs (when reset()
  /// re-arms the geometry, with every shard quiescent at the barrier) and
  /// shared by every shard thread while a fused epoch runs (geometry reads).
  /// The grant is a protocol edge — the crew barrier — not a lock, so the
  /// methods below assert the role rather than block for it.
  util::Capability coord;

  /// Re-arms the ledger for a fused epoch starting at `base` with sub-window
  /// width `window`. Coordinator-only, never concurrent with shard execution.
  void reset(SimTime base, SimDuration window) {
    // Exclusive by protocol: reset is only called between epochs, when the
    // crew barrier has parked every shard thread.
    coord.assert_held();
    base_ = base;
    window_ = window;
    // relaxed: the re-armed value is published to shard threads by the crew's
    // generation-bump release, not by this store.
    min_send_window_.store(kNoStop, std::memory_order_relaxed);
  }

  /// Records a barrier-requiring send whose earliest effect is at `t`
  /// (callable from any shard thread). Lock-free atomic-min.
  void note_send(SimTime t) {
    const std::uint64_t w = window_of(t);
    // relaxed load / release CAS: the publishing edge peers rely on is the
    // sender's *progress-word* release that follows note_send in program
    // order (see fused_shard_loop); the CAS release only orders the window
    // value itself for stop_window()'s acquire.
    std::uint64_t cur = min_send_window_.load(std::memory_order_relaxed);
    while (w < cur && !min_send_window_.compare_exchange_weak(
                          cur, w, std::memory_order_release, std::memory_order_relaxed)) {
    }
  }

  /// Sub-window index of time `t` (0 for anything at or before base).
  [[nodiscard]] std::uint64_t window_of(SimTime t) const {
    // Shared by protocol: geometry is frozen for the whole epoch; any thread
    // inside the epoch (including note_send callers) may read it.
    coord.assert_shared();
    return t <= base_ ? 0 : (t - base_) / window_;
  }

  /// First sub-window no shard may execute: one past the earliest recorded
  /// send's window, or kNoStop while nothing was recorded.
  [[nodiscard]] std::uint64_t stop_window() const {
    // acquire: pairs with note_send's release so the reader of a stop
    // decision also observes the recorded window value.
    const std::uint64_t m = min_send_window_.load(std::memory_order_acquire);
    return m == kNoStop ? kNoStop : m + 1;
  }

  [[nodiscard]] SimTime base() const {
    coord.assert_shared();  // frozen for the epoch, see window_of
    return base_;
  }
  [[nodiscard]] SimDuration window() const {
    coord.assert_shared();  // frozen for the epoch, see window_of
    return window_;
  }

 private:
  SimTime base_ CNI_GUARDED_BY(coord) = 0;
  SimDuration window_ CNI_GUARDED_BY(coord) = 1;
  std::atomic<std::uint64_t> min_send_window_{kNoStop};
};

/// Callbacks the epoch runner needs from the fabric beyond the barrier drain.
struct FusedHooks {
  /// Routes the shard's own intra-block transfers with head < limit, in
  /// canonical order, scheduling their deliveries; returns the earliest
  /// remaining unrouted local head (kNever when none). Called concurrently
  /// for different shards — sound only for aligned plans (see
  /// ShardPlan::aligned); keep local queues empty otherwise.
  // cni-lint: allow(functionref-escape): borrowed for exactly one run_epochs
  // call; the caller keeps the named lambdas alive for its whole duration.
  util::FunctionRef<SimTime(std::uint32_t shard, SimTime limit)> local_drain;
  /// Earliest unrouted local head of `shard` (kNever when none).
  // cni-lint: allow(functionref-escape): borrowed for exactly one run_epochs
  // call, same lifetime argument as local_drain.
  util::FunctionRef<SimTime(std::uint32_t shard)> local_min;
  /// Where the fabric records barrier-requiring sends.
  FusionLedger& ledger;
};

/// Runs the shard engines in lookahead epochs until every heap is empty and
/// no transfer remains buffered. `drain` is called at each barrier (on the
/// coordinating thread, never concurrently with shard execution) with the
/// finality limit E + drain_horizon; it must flush every buffered transfer —
/// outboxes and not-yet-routed local queues — and route those whose head lies
/// below the limit into the destination engines, in canonical order, then
/// return the earliest remaining head (kNever when none).
///
/// `matrix` supplies per-pair lookahead for the epoch bound. Whenever nothing
/// is buffered the next epoch is fused, ending at `hooks.ledger`'s stop
/// window.
///
/// One shard runs inline on the calling thread; shards 1..K-1 run on worker
/// threads that live for the whole call (none at K = 1). Exceptions thrown inside a shard
/// (e.g. a failed CNI_CHECK in a fiber) stop the run at the next barrier and
/// the lowest-shard exception is rethrown on the calling thread.
///
/// `prof` (optional, enabled via ShardProfiler::enable) receives wall-time
/// phase transitions at epoch and sub-window boundaries only — never inside
/// the event loop. Null (the default) costs nothing.
void run_epochs(std::span<Engine* const> engines, const EpochParams& params,
                const LookaheadMatrix& matrix, const FusedHooks& hooks,
                util::FunctionRef<SimTime(SimTime)> drain, EpochStats* stats = nullptr,
                ShardProfiler* prof = nullptr);

}  // namespace cni::sim
