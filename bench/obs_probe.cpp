// Probe kernel for micro_obs. See obs_probe.hpp.
#include "obs_probe.hpp"

namespace cni::bench {

// Mirrors CniBoard's transmit fast path: one Message Cache lookup, then the
// instrumentation the observability layer wraps around it. With every handle
// null only the lookup and one pointer test per emit site remain.
std::uint64_t probe_step(ProbeCtx& ctx) {
  const std::uint64_t limit = ctx.mcache.buffer_count() * 4096;
  const bool hit = ctx.mcache.lookup_tx(ctx.va, 4096);
  ctx.t += 1000;
  const std::uint64_t wait = ctx.va & 0xFFFU;
  CNI_OBS_HIST(ctx.hist, wait);
  CNI_OBS_GAUGE_SET(ctx.gauge, static_cast<std::int64_t>(ctx.va & 0x3FU));
  if (hit) {
    CNI_TRACE_SPAN(ctx.node, ctx.t, ctx.t + wait, obs::Component::kMCache,
                   obs::Event::kMCacheLookupHit, ctx.va, 4096);
  } else {
    CNI_TRACE_INSTANT(ctx.node, ctx.t, obs::Component::kMCache,
                      obs::Event::kMCacheLookupMiss, ctx.va, 4096);
  }
  // The causal-span emit site wrapped around the same lookup: a
  // parent-linked record keyed by the frame's causality token. Another
  // single-pointer-test site when the runtime switch is off.
  const std::uint64_t span = obs::causal_token(0, ctx.seq++, obs::Stage::kMCache);
  CNI_TRACE_CAUSAL(ctx.node, ctx.t, ctx.t + wait, obs::Stage::kMCache, span,
                   obs::causal_restage(span, obs::Stage::kTx));
  ctx.va = (ctx.va + 4096) % limit;
  return static_cast<std::uint64_t>(hit) + ctx.va;
}

}  // namespace cni::bench
