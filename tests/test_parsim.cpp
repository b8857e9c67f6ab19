// Parallel-in-run simulation (DESIGN.md §12): shard-plan and epoch math,
// canonical cross-shard drain ordering, and the headline property — the same
// seed produces byte-identical results at every shard count, sequentially
// and under a concurrent sweep pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "atm/fabric.hpp"
#include "cluster/cluster.hpp"
#include "obs/report.hpp"
#include "sim/sharded.hpp"

namespace cni {
namespace {

// ---------------------------------------------------------------------------
// ShardPlan

TEST(ShardPlan, BalancedClampsIntoNodeRange) {
  EXPECT_EQ(sim::ShardPlan::balanced(8, 0).shards, 1u);
  EXPECT_EQ(sim::ShardPlan::balanced(8, 3).shards, 3u);
  EXPECT_EQ(sim::ShardPlan::balanced(4, 64).shards, 4u);  // never > nodes
  EXPECT_EQ(sim::ShardPlan::balanced(1, 4).shards, 1u);
}

TEST(ShardPlan, BlocksAreContiguousBalancedAndExhaustive) {
  for (std::uint32_t nodes : {1u, 2u, 5u, 8u, 17u, 32u, 256u}) {
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
      const sim::ShardPlan plan = sim::ShardPlan::balanced(nodes, shards);
      std::uint32_t total = 0;
      std::uint32_t prev = 0;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        const std::uint32_t s = plan.shard_of(n);
        ASSERT_LT(s, plan.shards);
        ASSERT_GE(s, prev) << "blocks must be contiguous and ordered";
        prev = s;
      }
      std::uint32_t max_count = 0;
      std::uint32_t min_count = nodes;
      for (std::uint32_t s = 0; s < plan.shards; ++s) {
        const std::uint32_t c = plan.count(s);
        total += c;
        max_count = std::max(max_count, c);
        min_count = std::min(min_count, c);
        // count() must agree with shard_of().
        std::uint32_t seen = 0;
        for (std::uint32_t n = 0; n < nodes; ++n) {
          if (plan.shard_of(n) == s) ++seen;
        }
        ASSERT_EQ(seen, c);
      }
      EXPECT_EQ(total, nodes);
      EXPECT_LE(max_count - min_count, 1u) << "block sizes differ by at most one";
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch math

TEST(EpochMath, SatAddSaturatesAtNever) {
  EXPECT_EQ(sim::sat_add(10, 5), 15u);
  EXPECT_EQ(sim::sat_add(sim::kNever, 1), sim::kNever);
  EXPECT_EQ(sim::sat_add(sim::kNever - 3, 10), sim::kNever);
  EXPECT_EQ(sim::sat_add(sim::kNever - 3, 3), sim::kNever);
}

TEST(EpochMath, NextEpochEndTakesTheTighterBound) {
  sim::EpochParams p;
  p.lookahead = 800;
  p.drain_horizon = 150;
  p.pending_bound = 650;
  // No pending transfers: the window is t_min + L.
  EXPECT_EQ(sim::next_epoch_end(1000, sim::kNever, p), 1800u);
  // A pending head close below t_min tightens the window: its delivery at
  // head + pending_bound must stay outside the epoch.
  EXPECT_EQ(sim::next_epoch_end(1000, 900, p), 1550u);
  // A pending head far in the future is not the binding constraint.
  EXPECT_EQ(sim::next_epoch_end(1000, 5000, p), 1800u);
  // All-idle engines with a pending transfer still make progress.
  EXPECT_EQ(sim::next_epoch_end(sim::kNever, 900, p), 1550u);
}

/// Uniform all-pairs matrix with `l` everywhere off the diagonal — the shape
/// atm::Fabric exports for the single-stage banyan.
sim::LookaheadMatrix uniform_matrix(std::uint32_t shards, sim::SimDuration l) {
  sim::LookaheadMatrix m;
  m.shards = shards;
  m.entries.assign(static_cast<std::size_t>(shards) * shards, l);
  for (std::uint32_t r = 0; r < shards; ++r) {
    m.entries[static_cast<std::size_t>(r) * shards + r] =
        sim::LookaheadMatrix::kUnbounded;
  }
  return m;
}

sim::EpochParams fabric_epoch_params() {
  sim::EpochParams p;
  p.lookahead = 800;
  p.drain_horizon = 150;
  p.pending_bound = 650;
  return p;
}

TEST(EpochMath, MatrixBoundMatchesGlobalForUniformMatrix) {
  const sim::EpochParams p = fabric_epoch_params();
  const sim::LookaheadMatrix m = uniform_matrix(3, p.lookahead);
  const sim::SimTime t_next[] = {1200, 1000, 4000};
  EXPECT_EQ(sim::next_epoch_end(t_next, m, sim::kNever, p),
            sim::next_epoch_end(1000, sim::kNever, p));
  EXPECT_EQ(sim::next_epoch_end(t_next, m, 900, p),
            sim::next_epoch_end(1000, 900, p));
}

TEST(EpochMath, MatrixBoundSkipsIdleShardsAndSaturatesAtNever) {
  const sim::EpochParams p = fabric_epoch_params();
  const sim::LookaheadMatrix m = uniform_matrix(2, p.lookahead);
  // All shards idle, one buffered transfer: only the pending bound binds.
  const sim::SimTime idle[] = {sim::kNever, sim::kNever};
  EXPECT_EQ(sim::next_epoch_end(idle, m, 900, p), 1550u);
  // Nothing anywhere: the epoch loop is about to terminate.
  EXPECT_EQ(sim::next_epoch_end(idle, m, sim::kNever, p), sim::kNever);
  // An idle shard stays out of the minimum entirely.
  const sim::SimTime one_busy[] = {1000, sim::kNever};
  EXPECT_EQ(sim::next_epoch_end(one_busy, m, sim::kNever, p), 1800u);
  // Event times near kNever saturate instead of wrapping.
  const sim::SimTime huge[] = {sim::kNever - 3, sim::kNever};
  EXPECT_EQ(sim::next_epoch_end(huge, m, sim::kNever, p), sim::kNever);
}

TEST(EpochMath, MatrixBoundUsesPerShardOutgoingLookahead) {
  const sim::EpochParams p = fabric_epoch_params();
  // Shard 1 is "far": whatever it emits takes 5000 to land anywhere, so its
  // imminent event must not shrink the window below shard 0's own bound.
  sim::LookaheadMatrix m = uniform_matrix(2, p.lookahead);
  m.entries[1 * 2 + 0] = 5000;
  const sim::SimTime t_next[] = {2000, 1000};
  EXPECT_EQ(m.out_bound(0), 800u);
  EXPECT_EQ(m.out_bound(1), 5000u);
  EXPECT_EQ(sim::next_epoch_end(t_next, m, sim::kNever, p), 2800u);
}

TEST(FusionLedger, StopWindowIsOnePastEarliestRecordedSend) {
  sim::FusionLedger led;
  led.reset(1000, 800);
  EXPECT_EQ(led.stop_window(), sim::FusionLedger::kNoStop);
  EXPECT_EQ(led.window_of(999), 0u);  // at or before base
  EXPECT_EQ(led.window_of(1000), 0u);
  EXPECT_EQ(led.window_of(1800), 1u);
  led.note_send(2700);  // window 2
  EXPECT_EQ(led.stop_window(), 3u);
  led.note_send(1100);  // window 0: atomic-min tightens the stop
  EXPECT_EQ(led.stop_window(), 1u);
  led.note_send(5000);  // a later send can never loosen it again
  EXPECT_EQ(led.stop_window(), 1u);
  led.reset(2000, 800);  // re-arming clears the record
  EXPECT_EQ(led.stop_window(), sim::FusionLedger::kNoStop);
}

TEST(FusionLedger, StopWindowIsInvariantUnderEverySendInterleaving) {
  // During a fused epoch every shard calls note_send concurrently, so the
  // order the ledger observes is an arbitrary interleaving decided by the
  // schedule. The stop decision must be a pure function of the *set* of
  // sends: exhaust all N! arrival orders of a fixed send set (with ties,
  // at-base and far-future times included) and require one answer.
  const std::vector<sim::SimTime> sends = {900, 1000, 1150, 1800, 1800, 42'000};
  std::vector<std::size_t> order(sends.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  auto stop_for = [&sends](const std::vector<std::size_t>& perm) {
    sim::FusionLedger led;
    led.reset(1000, 800);
    for (const std::size_t i : perm) led.note_send(sends[i]);
    return led.stop_window();
  };

  const std::uint64_t expected = stop_for(order);
  EXPECT_EQ(expected, 1u);  // sends at/before base land in window 0
  std::uint64_t perms = 0;
  do {
    ASSERT_EQ(stop_for(order), expected)
        << "interleaving #" << perms << " changed the fusion stop decision";
    ++perms;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(perms, 720u);  // 6! index orders (ties run twice; still cheap)
}

TEST(LookaheadMatrix, FabricExportIsSymmetricBoundedWithUnboundedDiagonal) {
  sim::Engine eng;
  const std::vector<sim::Engine*> engines = {&eng};
  sim::FusionLedger ledger;
  const atm::Fabric fabric(atm::FabricParams{}, sim::ShardPlan::balanced(16, 1), engines,
                           ledger);
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    const sim::ShardPlan plan = sim::ShardPlan::balanced(16, shards);
    const sim::LookaheadMatrix m = fabric.lookahead_matrix(plan);
    ASSERT_EQ(m.shards, plan.shards);
    ASSERT_EQ(m.entries.size(),
              static_cast<std::size_t>(plan.shards) * plan.shards);
    for (std::uint32_t r = 0; r < m.shards; ++r) {
      for (std::uint32_t c = 0; c < m.shards; ++c) {
        if (r == c) {
          EXPECT_EQ(m.at(r, c), sim::LookaheadMatrix::kUnbounded)
              << "intra-shard causality never bounds the epoch";
        } else {
          EXPECT_GT(m.at(r, c), 0u);
          EXPECT_LE(m.at(r, c), fabric.min_lookahead())
              << "no pair may claim more slack than the global bound";
          EXPECT_EQ(m.at(r, c), m.at(c, r)) << "pair lookahead is symmetric";
        }
      }
      if (m.shards > 1) {
        EXPECT_LE(m.out_bound(r), fabric.min_lookahead());
      } else {
        EXPECT_EQ(m.out_bound(r), sim::LookaheadMatrix::kUnbounded);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical drain order

/// Builds a 4-node fabric over two engines (nodes 0,1 -> shard 0; nodes
/// 2,3 -> shard 1) and records delivery order at each node.
struct ShardedFabricFixture {
  sim::Engine e0, e1;
  std::vector<sim::Engine*> engines = {&e0, &e1};
  sim::FusionLedger ledger;
  atm::FabricParams params;
  atm::Fabric fabric{params, sim::ShardPlan::balanced(4, 2), engines, ledger};
  std::vector<std::pair<atm::NodeId, atm::NodeId>> deliveries;  // (dst, src)

  ShardedFabricFixture() {
    for (atm::NodeId n = 0; n < 4; ++n) {
      fabric.attach(n, [this, n](atm::Frame f) { deliveries.emplace_back(n, f.src); });
    }
  }

  atm::Frame frame(atm::NodeId src, atm::NodeId dst) const {
    atm::Frame f;
    f.src = src;
    f.dst = dst;
    return f;
  }

  void run_all() {
    e0.run();
    e1.run();
  }
};

TEST(ShardedFabric, SendsBufferUntilDrain) {
  ShardedFabricFixture fx;
  fx.fabric.send(0, fx.frame(0, 2));
  fx.run_all();
  EXPECT_TRUE(fx.deliveries.empty()) << "nothing may deliver before the barrier";
  EXPECT_EQ(fx.fabric.drain(sim::kNever), sim::kNever);
  fx.run_all();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0], (std::pair<atm::NodeId, atm::NodeId>{2, 0}));
}

TEST(ShardedFabric, DrainRespectsLimitAndReturnsEarliestRemainingHead) {
  ShardedFabricFixture fx;
  fx.fabric.send(0, fx.frame(0, 2));                       // head = propagation
  fx.fabric.send(sim::kMillisecond, fx.frame(1, 3));       // head = 1ms + propagation
  const sim::SimTime early_head = fx.params.propagation;
  const sim::SimTime late_head = sim::kMillisecond + fx.params.propagation;
  // A limit between the two heads routes only the first transfer.
  EXPECT_EQ(fx.fabric.drain(early_head + 1), late_head);
  fx.run_all();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].second, 0u);
  // The next barrier finishes the job.
  EXPECT_EQ(fx.fabric.drain(sim::kNever), sim::kNever);
  fx.run_all();
  ASSERT_EQ(fx.deliveries.size(), 2u);
}

TEST(ShardedFabric, EqualHeadsBreakTiesBySourceNodeNotCallOrder) {
  ShardedFabricFixture fx;
  // Same ready instant on distinct uplinks -> identical head-at-switch
  // times. Send from the *higher* node first: canonical order must still
  // deliver node 1's frame first.
  fx.fabric.send(0, fx.frame(2, 0));
  fx.fabric.send(0, fx.frame(1, 0));
  fx.fabric.drain(sim::kNever);
  fx.run_all();
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[0].second, 1u);
  EXPECT_EQ(fx.deliveries[1].second, 2u);
}

TEST(ShardedFabric, SameSourceKeepsSendSequenceOrder) {
  ShardedFabricFixture fx;
  // Two frames from one node, queued back-to-back on its uplink. The second
  // has a later head; and even at equal heads the per-source sequence is the
  // final tie-break, so FIFO per source always holds.
  atm::Frame a = fx.frame(0, 2);
  atm::Frame b = fx.frame(0, 3);
  fx.fabric.send(0, std::move(a));
  fx.fabric.send(0, std::move(b));
  fx.fabric.drain(sim::kNever);
  fx.run_all();
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[0].first, 2u);
  EXPECT_EQ(fx.deliveries[1].first, 3u);
}

TEST(ShardedFabric, LocalDrainRoutesFinalHeadsAndReportsTheNext) {
  // The plan is aligned, so a send whose endpoints share a shard skips the
  // outbox and waits in that shard's lane until the shard's own local drain
  // (or the next barrier) routes it.
  using Delivery = std::pair<atm::NodeId, atm::NodeId>;  // (dst, src)
  ShardedFabricFixture fx;
  const sim::SimTime prop = fx.params.propagation;
  const sim::SimTime ms = sim::kMillisecond;
  fx.fabric.send(3 * ms, fx.frame(0, 1));  // lane 0, head 3 ms + prop
  fx.fabric.send(0, fx.frame(1, 0));       // lane 0, head prop
  EXPECT_EQ(fx.fabric.local_pending_min(0), prop);
  EXPECT_EQ(fx.fabric.local_pending_min(1), sim::kNever) << "shard 1 sent nothing";

  // Only the head below the limit is final; the drain reports the next one.
  const sim::SimTime next = fx.fabric.local_drain(0, prop + 1);
  EXPECT_EQ(next, 3 * ms + prop);
  EXPECT_EQ(fx.fabric.local_pending_min(0), next);
  EXPECT_EQ(fx.fabric.local_drain(1, sim::kNever), sim::kNever);
  fx.run_all();
  ASSERT_EQ(fx.deliveries, (std::vector<Delivery>{{0, 1}}));

  // A later send with an earlier head becomes the lane's new minimum.
  fx.fabric.send(ms, fx.frame(1, 0));  // lane 0, head 1 ms + prop
  EXPECT_EQ(fx.fabric.local_pending_min(0), ms + prop);

  // Cross-shard sends wait in the outbox: 2->0 ties the lane's 1->0 head at
  // node 0, and 3->1 falls between the lane's two remaining heads.
  fx.fabric.send(ms, fx.frame(2, 0));      // outbox, head 1 ms + prop
  fx.fabric.send(2 * ms, fx.frame(3, 1));  // outbox, head 2 ms + prop
  EXPECT_EQ(fx.fabric.local_pending_min(0), ms + prop) << "outbox sends are not local";

  // The barrier drain routes the lane's leftovers together with the outbox
  // in canonical order. Each destination's downlink serves in routing
  // order, so routing the lane before or after the outbox would reorder
  // node 0's equal heads (source 1 goes first) or node 1's pair (3 first).
  EXPECT_EQ(fx.fabric.drain(sim::kNever), sim::kNever);
  EXPECT_EQ(fx.fabric.local_pending_min(0), sim::kNever);
  fx.run_all();
  EXPECT_EQ(fx.deliveries,
            (std::vector<Delivery>{{0, 1}, {0, 1}, {0, 2}, {1, 3}, {1, 0}}));
}

TEST(ShardedFabric, DeliveryOrderIsInvariantUnderEverySendInterleaving) {
  // The epoch schedule decides the order in which shards hand their sends to
  // the fabric — per epoch, per fusion decision, per K. The canonical
  // (head, src, seq) drain must erase all of it: replay the same send set
  // under every permutation of the cross-source order and every drain
  // schedule, and require the same delivery sequence.
  // Same-source sends keep their program order (the uplink serializes them),
  // so permutations run over one send per source, with head-time ties.
  struct Send {
    sim::SimTime ready;
    atm::NodeId src, dst;
  };
  const sim::SimTime ms = sim::kMillisecond;
  const std::vector<std::vector<Send>> send_sets = {
      // Every send crosses shards.
      {{0, 0, 2}, {0, 1, 3}, {0, 2, 1}, {ms, 3, 0}},
      // 1->0 and 2->3 stay inside their shards (the lane path); 1->0 ties
      // 3->0's head at node 0. Every cross-shard head lies past 1 ms, as
      // the fused-epoch protocol guarantees whenever a local drain runs.
      {{ms, 0, 2}, {ms, 1, 0}, {0, 2, 3}, {ms, 3, 0}},
  };
  enum class Schedule { kBarrier, kSplit, kLocalFirst };

  auto deliveries_for = [](const std::vector<Send>& sends,
                           const std::vector<std::size_t>& perm, Schedule schedule) {
    ShardedFabricFixture fx;
    for (const std::size_t i : perm) {
      const Send& s = sends[i];
      fx.fabric.send(s.ready, fx.frame(s.src, s.dst));
    }
    if (schedule == Schedule::kSplit) {
      // An epoch boundary between the early group and the millisecond
      // group: like a shorter epoch, the first drain routes only heads
      // below the limit.
      fx.fabric.drain(ms);
    } else if (schedule == Schedule::kLocalFirst) {
      // A fused epoch: each shard routes its own final lane heads first.
      fx.fabric.local_drain(0, ms);
      fx.fabric.local_drain(1, ms);
    }
    fx.fabric.drain(sim::kNever);
    fx.run_all();
    return fx.deliveries;
  };

  std::uint64_t cases = 0;
  for (const std::vector<Send>& sends : send_sets) {
    std::vector<std::size_t> order(sends.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto expected = deliveries_for(sends, order, Schedule::kBarrier);
    ASSERT_EQ(expected.size(), sends.size());
    do {
      for (const Schedule schedule :
           {Schedule::kBarrier, Schedule::kSplit, Schedule::kLocalFirst}) {
        ASSERT_EQ(deliveries_for(sends, order, schedule), expected)
            << "interleaving #" << cases << " schedule=" << static_cast<int>(schedule)
            << " changed the delivery sequence";
        ++cases;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
  EXPECT_EQ(cases, 144u);  // 2 send sets x 4! send orders x 3 drain schedules
}

// ---------------------------------------------------------------------------
// Whole-cluster determinism

/// Everything a run can observably produce, flattened to bytes.
std::string run_fingerprint(const cluster::SimParams& params,
                            const apps::JacobiConfig& config) {
  double checksum = 0;
  const apps::RunResult r = apps::run_jacobi(params, config, &checksum);
  obs::ReportPoint point;
  point.label = "determinism";
  point.values.emplace_back("elapsed_cycles", static_cast<double>(r.elapsed_cycles));
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    point.legacy.emplace_back(f.name, r.totals.*(f.member));
  }
  point.snapshot = r.snapshot;
  std::ostringstream out;
  out.precision(17);
  out << r.elapsed << '|' << r.elapsed_cycles << '|' << checksum << '|'
      << r.hit_ratio_pct << '|' << r.compute_e9 << '|' << r.overhead_e9 << '|'
      << r.delay_e9 << '\n';
  const std::vector<obs::ReportPoint> points = {point};
  out << obs::run_report_json("test_parsim", {{"app", "jacobi"}}, points);
  out << obs::chrome_trace_json(points);
  return std::move(out).str();
}

TEST(ParsimDeterminism, RandomizedRunsAreByteIdenticalAcrossShardCounts) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 3; ++trial) {
    apps::JacobiConfig config;
    config.n = static_cast<std::uint32_t>(16 + (rng() % 3) * 8);
    config.iterations = static_cast<std::uint32_t>(2 + rng() % 3);
    const std::uint32_t procs = 1u << (1 + rng() % 3);  // 2, 4 or 8
    cluster::SimParams params =
        apps::make_params(cluster::BoardKind::kCni, procs);
    params.obs.trace = true;  // exercise trace-export identity too
    params.sim_shards = 1;
    const std::string base = run_fingerprint(params, config);
    // K changes the epoch schedule, never the bytes.
    for (const std::uint32_t k : {1u, 2u, 4u}) {
      params.sim_shards = k;
      EXPECT_EQ(base, run_fingerprint(params, config))
          << "trial " << trial << " diverged at K=" << k;
    }
  }
}

TEST(ParsimDeterminism, ExhaustiveKnobGridIsByteIdenticalOnBoundedCluster) {
  // Exhaustive (not sampled) schedule coverage on a bounded cluster: every
  // legal shard count 1..nodes — including K=3, which splits 4 nodes into
  // unequal, unaligned shards (no local fast path, every send fuses through
  // the ledger). Each K produces a different epoch schedule, i.e. a
  // different interleaving of shard execution, fusion decisions and barrier
  // drains; all of them must reproduce the K=1 fingerprint byte for byte.
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 4);
  params.obs.trace = true;  // trace export identity too
  params.sim_shards = 1;
  const std::string base = run_fingerprint(params, config);
  for (std::uint32_t k = 1; k <= 4; ++k) {
    params.sim_shards = k;
    EXPECT_EQ(base, run_fingerprint(params, config)) << "diverged at K=" << k;
  }
}

TEST(ParsimDeterminism, ShardCountsBeyondNodeCountClampAndStayIdentical) {
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 4);
  params.sim_shards = 1;
  const std::string base = run_fingerprint(params, config);
  params.sim_shards = 64;  // clamps to 4 shards
  EXPECT_EQ(base, run_fingerprint(params, config));
  params.sim_shards = 0;  // clamps to 1 shard, like any K below 1
  EXPECT_EQ(base, run_fingerprint(params, config));
}

TEST(ParsimDeterminism, ConcurrentSweepPoolDoesNotPerturbResults) {
  // Four sharded runs on a 4-worker pool must reproduce the sequential
  // fingerprints exactly (each point builds its own cluster; the pool only
  // adds host-thread interleaving, which determinism must shrug off).
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 4);
  params.sim_shards = 2;
  const std::string expected = run_fingerprint(params, config);

  ASSERT_EQ(setenv("CNI_BENCH_JOBS", "4", 1), 0);
  std::vector<std::string> got(4);
  apps::parallel_indexed(got.size(), [&](std::size_t i) {
    got[i] = run_fingerprint(params, config);
  });
  ASSERT_EQ(unsetenv("CNI_BENCH_JOBS"), 0);
  for (const std::string& g : got) EXPECT_EQ(expected, g);
}

TEST(ParsimCluster, EpochStatsAreConsistent) {
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 4);
  params.sim_shards = 4;
  const apps::RunResult r = apps::run_jacobi(params, config);
  EXPECT_GT(r.parsim.epochs, 0u);
  EXPECT_GT(r.parsim.events_total, 0u);
  EXPECT_GE(r.parsim.events_total, r.parsim.critical_path_events);
  EXPECT_GE(r.parsim.critical_path_events, r.parsim.epochs)
      << "every epoch's busiest shard ran at least one event";
  EXPECT_LE(r.parsim.fused_epochs, r.parsim.epochs);
  EXPECT_GT(r.parsim.fused_epochs, 0u)
      << "the opening epoch has nothing buffered and must fuse";
  EXPECT_LE(r.parsim.barriers, r.parsim.epochs)
      << "an epoch pays at most one full rendezvous";

  // K = 1 runs inline: same epoch algorithm, no rendezvous ever.
  params.sim_shards = 1;
  const apps::RunResult one = apps::run_jacobi(params, config);
  EXPECT_EQ(one.parsim.barriers, 0u);
  EXPECT_EQ(one.parsim.events_total, r.parsim.events_total)
      << "the event count is a property of the simulation, not of K";
  EXPECT_EQ(one.elapsed_cycles, r.elapsed_cycles);
}

TEST(ParsimCluster, DeadlockIsDiagnosedInShardedMode) {
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 4);
  params.sim_shards = 2;
  cluster::Cluster cl(params);
  EXPECT_THROW(cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i == 1) t.block();  // nobody will ever wake node 1
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace cni
