// Application run harness.
//
// Builds a cluster + DSM system for a parameter set, runs one node body per
// processor, and extracts the metrics the paper's figures and tables report:
// elapsed time, per-category cycle breakdown (computation / synch overhead /
// synch delay) and the network cache hit ratio.
#pragma once

#include <cstddef>

#include "cluster/cluster.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "util/function_ref.hpp"

namespace cni::apps {

/// Worker count for running independent simulation points concurrently:
/// CNI_BENCH_JOBS if set, else std::thread::hardware_concurrency(). A value
/// that is not a count >= 1 fails a CNI_CHECK naming the variable.
[[nodiscard]] std::size_t sweep_jobs();

/// Runs fn(0), ..., fn(n-1) across a pool of sweep_jobs() threads. Each index
/// must be an independent unit of work (a full simulation builds its own
/// cluster, so points never share mutable state); callers keep output
/// ordering stable by writing results into a preallocated slot per index.
/// With one job (or n <= 1) everything runs on the calling thread. The first
/// exception thrown by any index is rethrown after all workers finish.
/// The callee outlives every call, so a non-owning FunctionRef suffices.
void parallel_indexed(std::size_t n, util::FunctionRef<void(std::size_t)> fn);

struct RunResult {
  sim::SimTime elapsed = 0;
  std::uint64_t elapsed_cycles = 0;  ///< host CPU cycles (166 MHz)
  sim::NodeStats totals;             ///< summed over nodes
  obs::Snapshot snapshot;            ///< per-node metrics (+ trace when enabled)
  double hit_ratio_pct = 0;          ///< network cache hit ratio (paper's term)
  double answer = 0;  ///< sum of the nodes' DsmContext::add_answer tallies
  cluster::EventCount parsim;        ///< events the run executed (perfbench's name)

  // Per-processor averages in units of 1e9 cycles (the paper's Tables 2-4).
  double compute_e9 = 0;
  double overhead_e9 = 0;
  double delay_e9 = 0;
  [[nodiscard]] double total_sum_e9() const { return compute_e9 + overhead_e9 + delay_e9; }
};

/// Paper Table 1 defaults for one board kind.
[[nodiscard]] inline cluster::SimParams make_params(cluster::BoardKind board,
                                                    std::uint32_t processors,
                                                    std::uint64_t page_size = 4096,
                                                    std::uint64_t mcache_bytes = 32 * 1024) {
  cluster::SimParams p;
  p.board = board;
  p.processors = processors;
  p.page_size = page_size;
  p.cni.message_cache_bytes = mcache_bytes;
  // Board memory must hold the Message Cache + ADC queues + AIH segments;
  // grow it past the OSIRIS 1 MB only when a sweep (Figure 13) asks for a
  // Message Cache that large.
  const std::uint64_t needed = mcache_bytes + 512 * 1024;
  if (needed > p.nic.dual_port_mem_bytes) p.nic.dual_port_mem_bytes = needed;
  return p;
}

/// Runs `body` on every node of a fresh cluster. `setup` allocates the
/// shared regions and returns the app's shared-address bundle.
template <typename Shared>
RunResult run_app(const cluster::SimParams& params,
                  util::FunctionRef<Shared(dsm::DsmSystem&)> setup,
                  util::FunctionRef<void(dsm::DsmContext&, const Shared&)> body,
                  dsm::DsmParams dsm_params = {}) {
  cluster::Cluster cl(params);
  dsm::DsmSystem dsmsys(cl, dsm_params);
  const Shared shared = setup(dsmsys);

  RunResult r;
  std::vector<double> answers(params.processors);
  r.elapsed = cl.run([&](std::size_t i, sim::SimThread& t) {
    dsm::DsmContext ctx(dsmsys, i, t);
    body(ctx, shared);
    answers[i] = ctx.answer();
  });
  for (const double a : answers) r.answer += a;
  r.elapsed_cycles = cl.elapsed_cpu_cycles();
  r.parsim = cl.epoch_stats();
  r.totals = cl.stats().total();
  r.snapshot = cl.snapshot();
  r.hit_ratio_pct = r.totals.tx_hit_ratio_pct();
  const double p = static_cast<double>(params.processors);
  r.compute_e9 = static_cast<double>(r.totals.compute_cycles) / p / 1e9;
  r.overhead_e9 = static_cast<double>(r.totals.synch_overhead_cycles) / p / 1e9;
  r.delay_e9 = static_cast<double>(r.totals.synch_delay_cycles) / p / 1e9;
  return r;
}

}  // namespace cni::apps
