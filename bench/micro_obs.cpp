// Observability overhead: what do the emit macros cost on a hot-path
// operation, per switch position?
//
//   ProbeRuntimeOff   null handles: the shipped default and the reference
//                     the others are measured against (one pointer test
//                     per site).
//   ProbeMetricsOn    histogram + gauge handles live, tracing off.
//   ProbeCausalOn     trace ring live, metrics handles null — isolates the
//                     trace-record sites (span + instant + causal).
//   ProbeTracingOn    full tracing into a ring (the --trace-out path).
//
// Plus an end-to-end pair: a small Jacobi run with the runtime trace switch
// off vs on — the whole-simulation view of the same question.
// scripts/bench_engine.py turns these into BENCH_obs.json.
#include <benchmark/benchmark.h>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "obs_probe.hpp"

namespace {

using namespace cni;
using bench::ProbeCtx;

void BM_ProbeRuntimeOff(benchmark::State& state) {
  ProbeCtx ctx;  // handles stay null
  for (auto _ : state) benchmark::DoNotOptimize(bench::probe_step(ctx));
}
BENCHMARK(BM_ProbeRuntimeOff);

void BM_ProbeMetricsOn(benchmark::State& state) {
  obs::Metrics metrics;
  ProbeCtx ctx;
  ctx.hist = metrics.histogram("probe.wait_ps");
  ctx.gauge = metrics.gauge("probe.occupancy");
  for (auto _ : state) benchmark::DoNotOptimize(bench::probe_step(ctx));
}
BENCHMARK(BM_ProbeMetricsOn);

void BM_ProbeCausalOn(benchmark::State& state) {
  obs::Options opts;
  opts.trace = true;
  opts.trace_capacity = 4096;
  obs::NodeObs node(0, opts);
  ProbeCtx ctx;  // hist/gauge stay null: only the trace emits record
  ctx.node = &node;
  for (auto _ : state) benchmark::DoNotOptimize(bench::probe_step(ctx));
  state.counters["trace_recorded"] = static_cast<double>(node.ring().recorded());
}
BENCHMARK(BM_ProbeCausalOn);

void BM_ProbeTracingOn(benchmark::State& state) {
  obs::Options opts;
  opts.trace = true;
  opts.trace_capacity = 4096;
  obs::NodeObs node(0, opts);
  obs::Metrics metrics;
  ProbeCtx ctx;
  ctx.node = &node;
  ctx.hist = metrics.histogram("probe.wait_ps");
  ctx.gauge = metrics.gauge("probe.occupancy");
  for (auto _ : state) benchmark::DoNotOptimize(bench::probe_step(ctx));
  state.counters["trace_recorded"] = static_cast<double>(node.ring().recorded());
}
BENCHMARK(BM_ProbeTracingOn);

void run_jacobi_once(bool trace) {
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 2);
  params.obs.trace = trace;
  params.obs.trace_capacity = 4096;
  const apps::RunResult r =
      apps::run_jacobi(params, apps::JacobiConfig{24, 3, 6}, nullptr);
  benchmark::DoNotOptimize(r.elapsed);
}

void BM_JacobiRuntimeOff(benchmark::State& state) {
  for (auto _ : state) run_jacobi_once(false);
}
BENCHMARK(BM_JacobiRuntimeOff)->Unit(benchmark::kMillisecond);

void BM_JacobiTracingOn(benchmark::State& state) {
  for (auto _ : state) run_jacobi_once(true);
}
BENCHMARK(BM_JacobiTracingOn)->Unit(benchmark::kMillisecond);

}  // namespace
