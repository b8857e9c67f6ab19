// Observability primitives: histogram math, metrics registry, emit macros
// and ring sizing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "obs/obs.hpp"

namespace cni::obs {
namespace {

TEST(Hist, BucketOfIsBitWidth) {
  EXPECT_EQ(Hist::bucket_of(0), 0u);
  EXPECT_EQ(Hist::bucket_of(1), 1u);
  EXPECT_EQ(Hist::bucket_of(2), 2u);
  EXPECT_EQ(Hist::bucket_of(3), 2u);
  EXPECT_EQ(Hist::bucket_of(4), 3u);
  EXPECT_EQ(Hist::bucket_of(1023), 10u);
  EXPECT_EQ(Hist::bucket_of(1024), 11u);
  EXPECT_EQ(Hist::bucket_of(~0ULL), 64u);
}

TEST(Hist, BucketBoundIsInclusiveUpperEdge) {
  EXPECT_EQ(Hist::bucket_bound(0), 0u);
  EXPECT_EQ(Hist::bucket_bound(1), 1u);
  EXPECT_EQ(Hist::bucket_bound(2), 3u);
  EXPECT_EQ(Hist::bucket_bound(10), 1023u);
  EXPECT_EQ(Hist::bucket_bound(64), ~0ULL);
}

TEST(Hist, AggregatesAndEmptyBehaviour) {
  Hist h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(7);
  h.record(3);
  h.record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
}

TEST(Hist, PercentilesUseNearestRankClampedToMax) {
  Hist h;
  for (int i = 0; i < 50; ++i) h.record(1);
  for (int i = 0; i < 50; ++i) h.record(1000);
  // rank(50) = 50 -> still in the value-1 bucket.
  EXPECT_EQ(h.percentile(50), 1u);
  // rank(95) = 95 -> the value-1000 bucket ([512, 1023]); reported value is
  // the bucket bound clamped to the observed max.
  EXPECT_EQ(h.percentile(95), 1000u);
  EXPECT_EQ(h.percentile(0), 1u);      // <= 0 reports the min
  EXPECT_EQ(h.percentile(100), 1000u); // >= 100 reports the true max
}

TEST(Gauge, TracksValueAndHighWater) {
  Gauge g;
  g.set(5);
  g.set(8);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 8);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(g.max(), 8);
}

TEST(Metrics, HistogramAndGaugeHandlesAreStable) {
  Metrics m;
  Hist* h = m.histogram("lat");
  Gauge* g = m.gauge("occ");
  // Creating more entries must not invalidate earlier handles: each entry is
  // its own heap allocation.
  for (int i = 0; i < 100; ++i) {
    (void)m.histogram("lat" + std::to_string(i));
    (void)m.gauge("occ" + std::to_string(i));
  }
  EXPECT_EQ(m.histogram("lat"), h);
  EXPECT_EQ(m.gauge("occ"), g);
}

TEST(NodeObs, RecordsAllThreeKinds) {
  Options opts;
  opts.trace = true;
  opts.trace_capacity = 16;
  NodeObs obs(3, opts);
  EXPECT_EQ(obs.ring().capacity(), 16u);
  obs.instant(100, Component::kMCache, Event::kMCacheLookupHit, 1, 2);
  obs.span(200, 250, Component::kAdc, Event::kAdcTxWait, 3, 4);
  obs.span(300, 290, Component::kAdc, Event::kAdcTxWait, 0, 0);  // clamps, never underflows
  obs.causal(400, 460, Stage::kRx, 9, 8);

  std::vector<TraceRecord> rs;
  obs.ring().for_each([&](const TraceRecord& r) { rs.push_back(r); });
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs[0].kind, Kind::kInstant);
  EXPECT_EQ(rs[0].node, 3u);
  EXPECT_EQ(rs[0].arg1, 2u);
  EXPECT_EQ(rs[1].kind, Kind::kSpan);
  EXPECT_EQ(rs[1].dur, 50u);
  EXPECT_EQ(rs[2].dur, 0u);
  EXPECT_EQ(rs[3].kind, Kind::kCausal);
  EXPECT_EQ(rs[3].event, causal_event(Stage::kRx));
  EXPECT_EQ(rs[3].dur, 60u);
  EXPECT_EQ(rs[3].arg0, 9u);  // this span's token
  EXPECT_EQ(rs[3].arg1, 8u);  // its parent's
}

TEST(ObsMacros, NullHandlesAndDisabledTracingAreSafeNoOps) {
  // Null handles and a quiet node gate every emit: nothing is recorded.
  NodeObs* none = nullptr;
  CNI_TRACE_INSTANT(none, 1, Component::kDsm, Event::kDsmFault, 0, 0);
  CNI_OBS_HIST(static_cast<Hist*>(nullptr), 5);
  CNI_OBS_GAUGE_SET(static_cast<Gauge*>(nullptr), 5);

  Options off;  // trace defaults to false
  NodeObs quiet(0, off);
  NodeObs* q = &quiet;
  CNI_TRACE_INSTANT(q, 1, Component::kDsm, Event::kDsmFault, 0, 0);
  CNI_TRACE_SPAN(q, 1, 2, Component::kDsm, Event::kDsmFault, 0, 0);
  CNI_TRACE_CAUSAL(q, 1, 2, Stage::kRx, 1, 0);
  EXPECT_EQ(quiet.ring().recorded(), 0u);
  EXPECT_EQ(quiet.ring().capacity(), 1u);  // nothing to hold: one slot
}

TEST(RunObs, ClusterRingsAreSizedOnlyWhenTracing) {
  // An untraced cluster's rings hold one slot and its run reports nothing
  // recorded or dropped; a traced cluster's rings keep trace_capacity.
  for (const bool trace : {false, true}) {
    cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 2);
    params.obs.trace = trace;
    params.obs.trace_capacity = 64;
    cluster::Cluster cl(params);
    dsm::DsmSystem sys(cl);
    for (std::uint32_t i = 0; i < cl.obs().node_count(); ++i) {
      EXPECT_EQ(cl.obs().node(i).ring().capacity(), trace ? 64u : 1u)
          << "trace=" << trace;
    }
    cl.run([&](std::size_t i, sim::SimThread& t) {
      dsm::DsmContext ctx(sys, i, t);
      ctx.barrier();
    });
    for (const NodeSnapshot& node : cl.snapshot().nodes) {
      if (!trace) {
        EXPECT_EQ(node.trace_recorded, 0u);
        EXPECT_EQ(node.trace_dropped, 0u);
      } else {
        EXPECT_GT(node.trace_recorded, 0u);
      }
    }
  }
}

TEST(Taxonomy, NamesAreStableIdentifiers) {
  EXPECT_STREQ(component_name(Component::kMCache), "mcache");
  EXPECT_STREQ(component_name(Component::kDsm), "dsm");
  EXPECT_STREQ(event_name(Event::kMCacheLookupHit), "mcache.lookup_hit");
  EXPECT_STREQ(event_name(Event::kDsmPageArrival), "dsm.page_arrival");
}

}  // namespace
}  // namespace cni::obs
