#include "sim/sharded.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "sim/shard_profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_annotations.hpp"
#include "util/units.hpp"

namespace cni::sim {

ShardPlan ShardPlan::balanced(std::uint32_t nodes, std::uint32_t shards) {
  ShardPlan p;
  p.nodes = nodes;
  const std::uint32_t cap = nodes == 0 ? 1 : nodes;
  p.shards = shards < 1 ? 1 : (shards > cap ? cap : shards);
  return p;
}

std::uint32_t ShardPlan::shard_of(std::uint32_t node) const {
  CNI_DCHECK(node < nodes);
  const std::uint32_t base = nodes / shards;
  const std::uint32_t rem = nodes % shards;
  const std::uint32_t cut = (base + 1) * rem;  // nodes below cut sit in big shards
  if (node < cut) return node / (base + 1);
  return rem + (node - cut) / base;
}

std::uint32_t ShardPlan::count(std::uint32_t shard) const {
  CNI_DCHECK(shard < shards);
  return nodes / shards + (shard < nodes % shards ? 1 : 0);
}

bool ShardPlan::aligned() const {
  // Equal blocks of power-of-two size: block s is [s*B, (s+1)*B) with B a
  // power of two, so each block is exactly one upper-bits address class of
  // the banyan's port space and the butterfly disjointness argument in the
  // header applies. (shards itself need not be a power of two.)
  return nodes > 0 && nodes % shards == 0 && util::is_pow2(nodes / shards);
}

SimTime next_epoch_end(std::span<const SimTime> t_next, const LookaheadMatrix& la,
                       SimTime pending_min, const EpochParams& p) {
  CNI_DCHECK(t_next.size() == la.shards);
  SimTime best = sat_add(pending_min, p.pending_bound);
  for (std::uint32_t r = 0; r < la.shards; ++r) {
    if (t_next[r] == kNever) continue;  // no pending events: cannot emit traffic
    const SimTime bound = sat_add(t_next[r], la.out_bound(r));
    best = bound < best ? bound : best;
  }
  return best;
}

namespace {

/// Logger time hook for worker threads: stamps with the shard's clock.
std::uint64_t shard_now(void* ctx) { return static_cast<Engine*>(ctx)->now(); }

/// Progress word value meaning "this shard executes nothing more this epoch".
constexpr std::uint64_t kIdleWord = ~0ull;

/// First sub-window whose local drain limit (start + drain_horizon) exceeds
/// head `h`: the window at which the owning shard routes that transfer.
std::uint64_t route_window(SimTime base, SimDuration window, SimDuration horizon,
                           SimTime h) {
  if (h < sat_add(base, horizon)) return 0;
  return (h - base - horizon) / window + 1;
}

/// Shared body of one shard's fused epoch (run by workers and, for shard 0,
/// by the coordinator). Sub-window j covers [start(j), start(j) + W). The
/// protocol per window:
///
///   1. publish a truthful skip to the first window holding any of our work
///      (an event to execute, or a local transfer to route);
///   2. wait until every peer's progress word >= j — peers then never again
///      execute events below start(j), so (a) any send they still make is
///      recorded with window >= j and (b) every local head < start(j) +
///      drain_horizon is final;
///   3. stop (without running) if the ledger's stop window <= j: the
///      earliest recorded send's delivery can land at or after start(j),
///      so the epoch must close with a real barrier drain first;
///   4. route our own final local heads, run our events below start(j+1),
///      publish progress j+1.
///
/// Step 2's acquire on each peer word pairs with the release in
/// publish-progress, which in program order follows every note_send of that
/// peer's windows < j: entering a window implies seeing every send that
/// could stop it. Deliveries routed in step 4 land at or after start(j)
/// (head >= start(j-1) + drain_horizon, plus the pending bound, spans one
/// full window), never into an already-executed range.
template <typename WaitPeers, typename Publish>
void fused_shard_loop(Engine& eng, std::uint32_t shard, const FusedHooks& hooks,
                      SimDuration drain_horizon, WaitPeers&& wait_peers,
                      Publish&& publish, ShardProfiler* prof) {
  FusionLedger& led = hooks.ledger;
  const SimTime base = led.base();
  const SimDuration w = led.window();
  std::uint64_t completed = 0;
  for (;;) {
    const SimTime t_ev = eng.next_time();
    const SimTime h_loc = hooks.local_min(shard);
    if (t_ev == kNever && h_loc == kNever) {
      if (prof != nullptr) prof->transition(shard, ShardPhase::kIdle);
      publish(kIdleWord);
      return;
    }
    std::uint64_t need = kIdleWord;
    if (t_ev != kNever) need = led.window_of(t_ev);
    if (h_loc != kNever) {
      const std::uint64_t r = route_window(base, w, drain_horizon, h_loc);
      need = r < need ? r : need;
    }
    std::uint64_t j = completed;
    if (need > j) {
      publish(completed = need);
      j = need;
    }
    if (prof != nullptr) prof->transition(shard, ShardPhase::kFusedWindow);
    wait_peers(j);
    if (led.stop_window() <= j) {
      if (prof != nullptr) prof->transition(shard, ShardPhase::kIdle);
      publish(kIdleWord);
      return;
    }
    const SimTime start_j = base + j * w;
    if (prof != nullptr) prof->transition(shard, ShardPhase::kDrain);
    hooks.local_drain(shard, start_j + drain_horizon);
    if (prof != nullptr) prof->transition(shard, ShardPhase::kBusy);
    eng.run_before(start_j + w);
    publish(completed = j + 1);
  }
}

/// Coordinator/worker crew for the epoch loop. Commands are published with a
/// single release on a generation word (the sense-reversing barrier's flag,
/// generalized to a counter so it doubles as the epoch id); workers wake on
/// it, run their shard, and each store the generation into a private, cache-
/// line-padded arrival word (release). The coordinator scans the arrival
/// words (acquire): those two edges are the happens-before making every
/// piece of per-epoch state — fabric outboxes and local queues, engine
/// heaps, pooled frame buffers crossing shards — race-free without locks,
/// and no shard ever contends a shared counter cacheline at the barrier.
///
/// Normal epochs in which no shard but 0 has work below the bound skip the
/// rendezvous entirely: the coordinator runs shard 0 inline while the
/// workers stay parked in atomic::wait. Reading a parked shard's engine is
/// safe: its worker is quiescent and the last rendezvous (or thread
/// creation) ordered its writes before ours.
///
/// Fused epochs are one crew round whose body is fused_shard_loop: shards
/// synchronize among themselves through the padded progress words and meet
/// at a single closing barrier, however many sub-windows the epoch spanned.
///
/// Two protocol roles, reified as util::Capability so Clang's thread-safety
/// analysis checks the ownership discipline at compile time (DESIGN.md §13):
///
///   barrier_cap_  the coordinator role. Held exclusively by the
///                 constructing thread for the crew's whole lifetime (the
///                 constructor acquires, the destructor releases); workers
///                 take it *shared* for the span of one command, which is
///                 what licenses their reads of the command payload.
///   shard_cap_    the executing-shard role: whoever is running one shard's
///                 events right now. Workers acquire it per command; the
///                 coordinator acquires it around its inline shard-0 runs.
class EpochCrew {
 public:
  enum class Cmd : std::uint8_t { kNormal, kFused, kStop };

  EpochCrew(std::span<Engine* const> engines, const FusedHooks& hooks,
            const EpochParams& params, EpochStats* stats,
            ShardProfiler* prof) CNI_ACQUIRE(barrier_cap_)
      : engines_(engines),
        hooks_(hooks),
        drain_horizon_(params.drain_horizon),
        prev_events_(engines.size(), 0),
        errors_(engines.size()),
        arrivals_(engines.size()),
        progress_(engines.size()),
        stats_(stats),
        prof_(prof) {
    threads_.reserve(engines.size() - 1);
    for (std::size_t s = 1; s < engines.size(); ++s) {
      threads_.emplace_back([this, s] { worker(s); });
    }
  }

  ~EpochCrew() CNI_RELEASE(barrier_cap_) {
    publish_cmd(Cmd::kStop, 0);
    for (std::thread& t : threads_) t.join();
  }

  /// One normal (single-window) epoch: every shard runs its events below
  /// `bound`, then barriers. Returns false when any shard raised.
  bool run_epoch(SimTime bound) CNI_REQUIRES(barrier_cap_) {
    bool remote_work = false;
    for (std::size_t s = 1; s < engines_.size(); ++s) {
      if (engines_[s]->next_time() < bound) {
        remote_work = true;
        break;
      }
    }
    if (remote_work) {
      const std::uint64_t g = publish_cmd(Cmd::kNormal, bound);
      shard_cap_.acquire();  // the coordinator doubles as shard 0's executor
      if (prof_ != nullptr) prof_->transition(0, ShardPhase::kBusy);
      run_shard(0, bound);
      if (prof_ != nullptr) prof_->transition(0, ShardPhase::kBarrierWait);
      shard_cap_.release();
      await_workers(g);
      if (prof_ != nullptr) prof_->transition(0, ShardPhase::kIdle);
      if (stats_ != nullptr) ++stats_->barriers;
    } else {
      // Workers stay parked: the last rendezvous (or thread creation)
      // ordered their shard state before us, so running shard 0 inline
      // still holds the executor role legitimately.
      shard_cap_.acquire();
      if (prof_ != nullptr) prof_->transition(0, ShardPhase::kBusy);
      run_shard(0, bound);
      if (prof_ != nullptr) prof_->transition(0, ShardPhase::kIdle);
      shard_cap_.release();
    }
    account_epoch(false);
    return !any_error();
  }

  /// One fused epoch (the ledger must be freshly reset). Returns false when
  /// any shard raised; otherwise *stop_out is the deterministic stop window
  /// (kNoStop when the epoch ran everything dry).
  bool run_fused(std::uint64_t* stop_out) CNI_REQUIRES(barrier_cap_) {
    // relaxed: the progress re-arm is published to workers by publish_cmd's
    // generation release, never read before it.
    for (Word& p : progress_) p.v.store(0, std::memory_order_relaxed);
    const std::uint64_t g = publish_cmd(Cmd::kFused, 0);
    shard_cap_.acquire();  // coordinator executes shard 0's fused loop inline
    run_fused_shard(0);
    if (prof_ != nullptr) prof_->transition(0, ShardPhase::kBarrierWait);
    shard_cap_.release();
    await_workers(g);
    if (prof_ != nullptr) prof_->transition(0, ShardPhase::kIdle);
    if (stats_ != nullptr) ++stats_->barriers;
    account_epoch(true);
    *stop_out = hooks_.ledger.stop_window();
    return !any_error();
  }

  /// First error in shard order — deterministic regardless of which worker
  /// hit its exception first on the wall clock.
  [[nodiscard]] std::exception_ptr first_error() const
      CNI_REQUIRES_SHARED(barrier_cap_) {
    for (const std::exception_ptr& e : errors_) {
      if (e != nullptr) return e;
    }
    return nullptr;
  }

 private:
  struct alignas(64) Word {
    std::atomic<std::uint64_t> v{0};
  };

  [[nodiscard]] bool any_error() const CNI_REQUIRES_SHARED(barrier_cap_) {
    return first_error() != nullptr;
  }

  /// Coordinator-side: writes the command payload, then releases it with one
  /// generation bump. Only called while every worker is parked (before the
  /// first epoch, or after await_workers), so the plain payload fields are
  /// ordered by the release/acquire pair on gen_.
  std::uint64_t publish_cmd(Cmd cmd, SimTime bound) CNI_REQUIRES(barrier_cap_) {
    cmd_ = cmd;
    bound_ = bound;
    // release: publishes cmd_/bound_ (and all pre-epoch state) to the
    // workers' matching acquire on gen_.
    const std::uint64_t g = gen_.fetch_add(1, std::memory_order_release) + 1;
    gen_.notify_all();
    return g;
  }

  void await_workers(std::uint64_t g) CNI_REQUIRES(barrier_cap_) {
    for (std::size_t s = 1; s < engines_.size(); ++s) {
      std::atomic<std::uint64_t>& word = arrivals_[s].v;
      for (std::uint32_t spins = 0;; ++spins) {
        // acquire: pairs with the worker's arrival release, making its whole
        // epoch of shard state visible to the coordinator.
        const std::uint64_t got = word.load(std::memory_order_acquire);
        if (got == g) break;
        if (spins > 1024) word.wait(got, std::memory_order_acquire);
      }
    }
  }

  void worker(std::size_t shard) {
    const util::ScopedLogTime log_time(&shard_now, engines_[shard]);
    std::uint64_t seen = 0;
    for (;;) {
      std::uint32_t spins = 0;
      std::uint64_t g;
      // acquire: pairs with publish_cmd's release — observing a new
      // generation is what grants this worker the command payload (shared)
      // and its own shard's state (exclusive) for this round.
      while ((g = gen_.load(std::memory_order_acquire)) == seen) {
        if (++spins > 1024) gen_.wait(seen, std::memory_order_acquire);
      }
      seen = g;
      barrier_cap_.acquire_shared();  // command payload readable this round
      const Cmd cmd = cmd_;
      if (cmd == Cmd::kStop) {
        barrier_cap_.release_shared();
        return;
      }
      shard_cap_.acquire();  // our shard's engine/error slot is ours now
      const auto sh = static_cast<std::uint32_t>(shard);
      if (cmd == Cmd::kNormal) {
        if (prof_ != nullptr) prof_->transition(sh, ShardPhase::kBusy);
        run_shard(shard, bound_);
        if (prof_ != nullptr) prof_->transition(sh, ShardPhase::kIdle);
      } else {
        run_fused_shard(shard);  // the fused loop drives its own transitions
      }
      shard_cap_.release();
      barrier_cap_.release_shared();
      // release: hands everything this shard touched back to the
      // coordinator's await_workers acquire.
      arrivals_[shard].v.store(seen, std::memory_order_release);
      arrivals_[shard].v.notify_all();
    }
  }

  void run_shard(std::size_t shard, SimTime bound) CNI_REQUIRES(shard_cap_) {
    if (errors_[shard] != nullptr) return;  // poisoned: idle until shutdown
    try {
      engines_[shard]->run_before(bound);
    } catch (...) {
      errors_[shard] = std::current_exception();
    }
  }

  void run_fused_shard(std::size_t shard) CNI_REQUIRES(shard_cap_) {
    if (errors_[shard] != nullptr) {
      publish_progress(shard, kIdleWord);
      return;
    }
    const auto sh = static_cast<std::uint32_t>(shard);
    try {
      fused_shard_loop(
          *engines_[shard], sh, hooks_, drain_horizon_,
          [this, shard](std::uint64_t j) {
            // Runs on the owning shard's thread inside run_fused_shard.
            shard_cap_.assert_held();
            wait_peers(shard, j);
          },
          [this, shard](std::uint64_t c) {
            shard_cap_.assert_held();  // same context as the wait hook
            publish_progress(shard, c);
          },
          prof_);
    } catch (...) {
      errors_[shard] = std::current_exception();
      // Abort path: stop peers at the next window they enter and unblock
      // anyone waiting on our progress. Determinism no longer matters — the
      // run rethrows — only prompt, deadlock-free termination does.
      hooks_.ledger.note_send(hooks_.ledger.base());
      publish_progress(shard, kIdleWord);
    }
  }

  void wait_peers(std::size_t self, std::uint64_t j) CNI_REQUIRES(shard_cap_) {
    for (std::size_t p = 0; p < progress_.size(); ++p) {
      if (p == self) continue;
      std::atomic<std::uint64_t>& word = progress_[p].v;
      for (std::uint32_t spins = 0;; ++spins) {
        // acquire: pairs with the peer's progress release; entering window j
        // therefore observes every send its windows < j recorded.
        const std::uint64_t c = word.load(std::memory_order_acquire);
        if (c >= j) break;
        if (spins > 1024) word.wait(c, std::memory_order_acquire);
      }
    }
  }

  void publish_progress(std::size_t shard, std::uint64_t completed)
      CNI_REQUIRES(shard_cap_) {
    std::atomic<std::uint64_t>& word = progress_[shard].v;
    // release: follows this window's note_send calls in program order, so a
    // peer's acquire of this word sees every send that could stop it.
    word.store(completed, std::memory_order_release);
    word.notify_all();
  }

  /// Coordinator-side: every engine is quiescent at the barrier, so the
  /// per-epoch deltas (and the busiest shard) are computed race-free here.
  void account_epoch(bool fused) CNI_REQUIRES(barrier_cap_) {
    if (stats_ == nullptr) return;
    ++stats_->epochs;
    if (fused) ++stats_->fused_epochs;
    std::uint64_t busiest = 0;
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      const std::uint64_t total = engines_[s]->events_executed();
      const std::uint64_t n = total - prev_events_[s];
      prev_events_[s] = total;
      stats_->events_total += n;
      busiest = n > busiest ? n : busiest;
    }
    stats_->critical_path_events += busiest;
  }

  /// Coordinator role (see class comment). Declared first so the guarded
  /// members below may reference it.
  util::Capability barrier_cap_;
  /// Executing-shard role (see class comment).
  util::Capability shard_cap_;

  std::span<Engine* const> engines_;
  FusedHooks hooks_;
  SimDuration drain_horizon_;
  /// Coordinator-only (see account_epoch).
  std::vector<std::uint64_t> prev_events_ CNI_GUARDED_BY(barrier_cap_);
  // Per-shard slots: element s written under shard s's executor role, read
  // by the coordinator at barriers (per-element guarding is beyond the
  // annotation language; the REQUIRES on run_shard/first_error carry it).
  std::vector<std::exception_ptr> errors_;
  std::vector<Word> arrivals_;  // per-shard padded barrier arrival words
  std::vector<Word> progress_;  // per-shard padded fused-window progress
  EpochStats* stats_ CNI_PT_GUARDED_BY(barrier_cap_);
  /// Null when profiling is off. Each shard thread calls transition() only
  /// on its own padded slot, so no guarding capability is needed.
  ShardProfiler* prof_;
  std::atomic<std::uint64_t> gen_{0};
  // Command payload: written by the coordinator only while workers are
  // parked, read by workers after the acquire on gen_ — plain fields.
  Cmd cmd_ CNI_GUARDED_BY(barrier_cap_) = Cmd::kNormal;
  SimTime bound_ CNI_GUARDED_BY(barrier_cap_) = 0;
  std::vector<std::thread> threads_;
};

/// K = 1 degenerates to the same epoch/fusion algorithm with no threads, no
/// atomics and no barrier cost — fused epochs become a plain sub-window loop
/// (drain own locals, run one window) and normal epochs the classic
/// drain/run cycle.
void run_epochs_inline(Engine& engine, const EpochParams& params, const FusedHooks& hooks,
                       util::FunctionRef<SimTime(SimTime)> drain, EpochStats* stats,
                       ShardProfiler* prof) {
  SimTime epoch_end = 0;
  for (;;) {
    if (prof != nullptr) prof->transition(0, ShardPhase::kDrain);
    const SimTime pending_min = drain(sat_add(epoch_end, params.drain_horizon));
    if (prof != nullptr) prof->transition(0, ShardPhase::kIdle);
    const SimTime t_min = engine.next_time();
    if (t_min == kNever && pending_min == kNever) return;
    const std::uint64_t before = engine.events_executed();
    if (pending_min == kNever) {
      FusionLedger& led = hooks.ledger;
      led.reset(t_min, params.lookahead);
      fused_shard_loop(engine, 0, hooks, params.drain_horizon,
                       [](std::uint64_t) {}, [](std::uint64_t) {}, prof);
      const std::uint64_t stop = led.stop_window();
      if (stop != FusionLedger::kNoStop) {
        epoch_end = sat_add(led.base(), stop * led.window());
      }
      if (stats != nullptr) {
        const std::uint64_t n = engine.events_executed() - before;
        ++stats->epochs;
        ++stats->fused_epochs;
        stats->events_total += n;
        stats->critical_path_events += n;
      }
    } else {
      const SimTime next = next_epoch_end(t_min, pending_min, params);
      CNI_CHECK_MSG(next > epoch_end, "epoch scheduler failed to advance");
      if (prof != nullptr) prof->transition(0, ShardPhase::kBusy);
      engine.run_before(next);
      if (prof != nullptr) prof->transition(0, ShardPhase::kIdle);
      if (stats != nullptr) {
        const std::uint64_t n = engine.events_executed() - before;
        ++stats->epochs;
        stats->events_total += n;
        stats->critical_path_events += n;
      }
      epoch_end = next;
    }
  }
}

}  // namespace

void run_epochs(std::span<Engine* const> engines, const EpochParams& params,
                const LookaheadMatrix& matrix, const FusedHooks& hooks,
                util::FunctionRef<SimTime(SimTime)> drain, EpochStats* stats,
                ShardProfiler* prof) {
  CNI_CHECK_MSG(!engines.empty(), "run_epochs needs at least one shard");
  CNI_CHECK_MSG(params.lookahead > 0 && params.drain_horizon > 0 && params.pending_bound > 0,
                "epoch margins must be positive for the scheduler to advance");
  if (prof != nullptr && !prof->enabled()) prof = nullptr;
  if (engines.size() == 1) {
    run_epochs_inline(*engines[0], params, hooks, drain, stats, prof);
    return;
  }
  EpochCrew crew(engines, hooks, params, stats, prof);
  std::vector<SimTime> t_next(engines.size(), kNever);
  SimTime epoch_end = 0;
  for (;;) {
    if (prof != nullptr) prof->transition(0, ShardPhase::kDrain);
    const SimTime pending_min = drain(sat_add(epoch_end, params.drain_horizon));
    if (prof != nullptr) prof->transition(0, ShardPhase::kIdle);
    SimTime t_min = kNever;
    for (std::size_t s = 0; s < engines.size(); ++s) {
      t_next[s] = engines[s]->next_time();
      t_min = t_next[s] < t_min ? t_next[s] : t_min;
    }
    if (t_min == kNever && pending_min == kNever) return;
    if (pending_min == kNever) {
      // Nothing is buffered anywhere (drain just flushed local queues too):
      // fuse. The epoch ends at the deterministic stop window — or runs the
      // whole remaining simulation if no shard ever needs the global merge.
      hooks.ledger.reset(t_min, params.lookahead);
      std::uint64_t stop = FusionLedger::kNoStop;
      if (!crew.run_fused(&stop)) break;
      if (stop != FusionLedger::kNoStop) {
        epoch_end = sat_add(t_min, stop * params.lookahead);
      }
      continue;
    }
    const SimTime next = next_epoch_end(t_next, matrix, pending_min, params);
    CNI_CHECK_MSG(next > epoch_end, "epoch scheduler failed to advance");
    if (!crew.run_epoch(next)) break;
    epoch_end = next;
  }
  std::exception_ptr err = crew.first_error();
  CNI_DCHECK(err != nullptr);
  std::rethrow_exception(err);
}

}  // namespace cni::sim
