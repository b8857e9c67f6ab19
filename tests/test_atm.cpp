#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "atm/banyan.hpp"
#include "atm/cell.hpp"
#include "atm/fabric.hpp"
#include "atm/packet.hpp"
#include "sim/engine.hpp"

namespace cni::atm {
namespace {

TEST(CellGeometry, StandardAtm) {
  CellGeometry g;
  EXPECT_EQ(g.cells_for(0), 1u);
  EXPECT_EQ(g.cells_for(48), 1u);
  EXPECT_EQ(g.cells_for(49), 2u);
  EXPECT_EQ(g.cells_for(4096), 86u);
  EXPECT_EQ(g.wire_bytes(4096), 86u * 53);
}

TEST(CellGeometry, UnrestrictedRemovesTheTax) {
  CellGeometry g(CellMode::kUnrestricted);
  EXPECT_EQ(g.cells_for(4096), 1u);
  EXPECT_EQ(g.wire_bytes(4096), 4096u + kCellHeaderBytes);
  // The mythical network of Table 5 always beats standard ATM on the wire.
  CellGeometry std_g;
  for (std::uint64_t len : {1ull, 48ull, 100ull, 4096ull, 100000ull}) {
    EXPECT_LE(g.wire_bytes(len), std_g.wire_bytes(len)) << len;
  }
}

TEST(Frame, HeaderRoundTrip) {
  struct Hdr {
    std::uint32_t a;
    std::uint16_t b;
  };
  std::vector<std::byte> body{std::byte{9}, std::byte{8}};
  Frame f = Frame::make(1, 2, 7, Hdr{42, 3}, body);
  EXPECT_EQ(f.size(), sizeof(Hdr) + 2);
  const Hdr h = f.header<Hdr>();
  EXPECT_EQ(h.a, 42u);
  EXPECT_EQ(h.b, 3u);
  EXPECT_EQ(f.bytes().back(), std::byte{8});
}

TEST(Banyan, StagesAndPorts) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  EXPECT_EQ(sw.stages(), 5u);  // the paper's 32-port banyan
  EXPECT_EQ(sw.ports(), 32u);
}

TEST(Banyan, UncontendedLatencyIsTheFabricLatency) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimTime out = sw.route(0, 3, 17, 1000);
  EXPECT_EQ(out, 500u * sim::kNanosecond);
  EXPECT_EQ(sw.contention_time(), 0u);
}

TEST(Banyan, SameOutputContends) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimDuration burst = 10 * sim::kMicrosecond;
  const sim::SimTime a = sw.route(0, 5, 9, burst);
  const sim::SimTime b = sw.route(0, 6, 9, burst);  // same destination port
  EXPECT_GT(b, a);
  EXPECT_GT(sw.contention_time(), 0u);
}

TEST(Banyan, DisjointPathsDoNotContend) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimDuration burst = 10 * sim::kMicrosecond;
  const sim::SimTime a = sw.route(0, 0, 0, burst);
  const sim::SimTime b = sw.route(0, 31, 31, burst);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sw.contention_time(), 0u);
}

// Property: a path's resources must be consistent — the final stage resource
// is determined by the destination alone, and two flows to different
// destinations never share it.
class BanyanPathProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BanyanPathProperty, FinalStageKeyedByDestination) {
  BanyanSwitch sw(GetParam(), 500 * sim::kNanosecond);
  const std::uint32_t ports = sw.ports();
  const std::uint32_t last = sw.stages() - 1;
  for (std::uint32_t s1 = 0; s1 < ports; s1 += 3) {
    for (std::uint32_t s2 = 0; s2 < ports; s2 += 5) {
      for (std::uint32_t d = 0; d < ports; d += 3) {
        EXPECT_EQ(sw.path_resource(s1, d, last), sw.path_resource(s2, d, last));
      }
    }
  }
  for (std::uint32_t d1 = 0; d1 < ports; ++d1) {
    for (std::uint32_t d2 = d1 + 1; d2 < ports; ++d2) {
      EXPECT_NE(sw.path_resource(0, d1, last), sw.path_resource(0, d2, last));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PortCounts, BanyanPathProperty, ::testing::Values(4, 8, 16, 32));

/// A fabric the way a cluster builds it: three nodes on one engine. Sends
/// buffer until a drain routes them through the switch in head-arrival
/// order; deliver_all() drains everything, then runs the delivery events,
/// so hooks observe arrival times on the engine clock.
struct FabricFixture {
  sim::Engine engine;
  Fabric fab{FabricParams{}, 3, engine};

  void deliver_all() {
    EXPECT_EQ(fab.drain(sim::kNever), sim::kNever);
    engine.run();
  }
};

TEST(Fabric, DeliversWithSerializationAndLatency) {
  FabricFixture fx;
  bool delivered = false;
  sim::SimTime arrival = 0;
  fx.fab.attach(0, [](Frame) {});
  fx.fab.attach(1, [&](Frame f) {
    delivered = true;
    arrival = fx.engine.now();
    EXPECT_EQ(f.size(), 24u);
  });
  Frame f = Frame::blank(0, 1, 0, 24);
  const DeliveryTiming t = fx.fab.send(0, std::move(f));
  EXPECT_EQ(t.cells, 1u);
  fx.deliver_all();
  EXPECT_TRUE(delivered);
  // One cell: ~681.6 ns serialization + 500 ns switch + 2x150 ns propagation.
  EXPECT_NEAR(static_cast<double>(arrival) / sim::kNanosecond, 681.6 + 500 + 300, 5.0);
}

TEST(Fabric, PerPairFifoOrder) {
  FabricFixture fx;
  std::vector<int> order;
  fx.fab.attach(0, [](Frame) {});
  fx.fab.attach(1, [&](Frame f) { order.push_back(static_cast<int>(f.vci)); });
  for (int i = 0; i < 5; ++i) {
    Frame f = Frame::blank(0, 1, static_cast<std::uint32_t>(i), 4096);
    fx.fab.send(0, std::move(f));
  }
  fx.deliver_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fabric, BiggerFramesArriveLater) {
  sim::SimTime small_arrival = 0;
  sim::SimTime big_arrival = 0;
  for (int round = 0; round < 2; ++round) {
    FabricFixture fx;
    sim::SimTime& arrival = round == 0 ? small_arrival : big_arrival;
    fx.fab.attach(0, [](Frame) {});
    fx.fab.attach(1, [&](Frame) { arrival = fx.engine.now(); });
    Frame f = Frame::blank(0, 1, 0, round == 0 ? 64 : 4096);
    fx.fab.send(0, std::move(f));
    fx.deliver_all();
  }
  EXPECT_LT(small_arrival, big_arrival);
}

TEST(Fabric, UplinkSerializesSuccessiveSends) {
  FabricFixture fx;
  sim::SimTime arrival_a = 0;
  sim::SimTime arrival_b = 0;
  fx.fab.attach(0, [](Frame) {});
  fx.fab.attach(1, [&](Frame) { arrival_a = fx.engine.now(); });
  fx.fab.attach(2, [&](Frame) { arrival_b = fx.engine.now(); });
  Frame a = Frame::blank(0, 1, 0, 4096);
  // different destination, same uplink
  Frame b = Frame::blank(0, 2, 0, 4096);
  const DeliveryTiming ta = fx.fab.send(0, std::move(a));
  const DeliveryTiming tb = fx.fab.send(0, std::move(b));
  EXPECT_GE(tb.first_bit_out, ta.first_bit_out);
  fx.deliver_all();
  EXPECT_GT(arrival_b, arrival_a);
  EXPECT_EQ(fx.fab.frames_sent(), 2u);
  EXPECT_EQ(fx.fab.cells_sent(), 2u * 86);
}

TEST(Fabric, ContentionIsFirstComeFirstServedByHeadArrival) {
  // Node 0 calls send first, but its frame may not start before 10 us; node
  // 1's frame, sent second and ready at 0, reaches the switch long before.
  // Both want node 2's output and downlink. Serving them in send-call order
  // would park node 1's frame behind a reservation for a frame still
  // waiting at its source; head-arrival order lets it cross uncontended.
  FabricFixture fx;
  std::vector<std::pair<NodeId, sim::SimTime>> arrivals;  // (src, time)
  fx.fab.attach(0, [](Frame) {});
  fx.fab.attach(1, [](Frame) {});
  fx.fab.attach(2, [&](Frame f) { arrivals.emplace_back(f.src, fx.engine.now()); });
  fx.fab.send(10 * sim::kMicrosecond, Frame::blank(0, 2, 0, 24));
  fx.fab.send(0, Frame::blank(1, 2, 0, 24));
  fx.deliver_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, 1u);
  EXPECT_NEAR(static_cast<double>(arrivals[0].second) / sim::kNanosecond,
              681.6 + 500 + 300, 5.0);
  EXPECT_EQ(arrivals[1].first, 0u);
  EXPECT_GT(arrivals[1].second, 10 * sim::kMicrosecond);
}

TEST(Fabric, DeliveryIsZeroCopyAndStatsAreExact) {
  // Regression pin for the pooled delivery path: the frame handed to the
  // destination hook must be the *same* buffer the sender built (refcount
  // handoff through the scheduled FrameTask, no payload copy), and the
  // frames/cells counters must match a hand-computed cell count.
  FabricFixture fx;
  const std::byte* delivered_data = nullptr;
  std::uint64_t delivered_size = 0;
  fx.fab.attach(0, [](Frame) {});
  fx.fab.attach(1, [&](Frame f) {
    delivered_data = f.payload.data();
    delivered_size = f.size();
    EXPECT_TRUE(f.payload.unique());  // sole owner at delivery: no stray copies
  });

  Frame f = Frame::blank(0, 1, 7, 1000);
  f.mutable_bytes()[999] = std::byte{0x6E};
  const std::byte* sent_data = f.payload.data();
  fx.fab.send(0, std::move(f));
  fx.deliver_all();

  EXPECT_EQ(delivered_data, sent_data);
  EXPECT_EQ(delivered_size, 1000u);
  EXPECT_EQ(fx.fab.frames_sent(), 1u);
  // ceil(1000 / 48 payload bytes per cell) = 21 cells.
  EXPECT_EQ(fx.fab.cells_sent(), 21u);
}

// ---------------------------------------------------------------------------
// Canonical drain order: the pending heap routes in (head, src, seq) order,
// whatever order the sends arrived in and however the drains are split.

/// Four nodes on one engine; records (dst, src) per delivery.
struct OrderFixture {
  sim::Engine engine;
  FabricParams params;
  Fabric fabric{params, 4, engine};
  std::vector<std::pair<NodeId, NodeId>> deliveries;  // (dst, src)

  OrderFixture() {
    for (NodeId n = 0; n < 4; ++n) {
      fabric.attach(n, [this, n](Frame f) { deliveries.emplace_back(n, f.src); });
    }
  }

  static Frame frame(NodeId src, NodeId dst) {
    Frame f;
    f.src = src;
    f.dst = dst;
    return f;
  }
};

TEST(Fabric, SendsBufferUntilDrain) {
  OrderFixture fx;
  fx.fabric.send(0, OrderFixture::frame(0, 2));
  fx.engine.run();
  EXPECT_TRUE(fx.deliveries.empty()) << "nothing may deliver before a drain";
  EXPECT_EQ(fx.fabric.drain(sim::kNever), sim::kNever);
  fx.engine.run();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0], (std::pair<NodeId, NodeId>{2, 0}));
}

TEST(Fabric, DrainRespectsLimitAndReturnsEarliestRemainingHead) {
  OrderFixture fx;
  // Heads at propagation and at 1 ms + propagation.
  fx.fabric.send(0, OrderFixture::frame(0, 2));
  fx.fabric.send(sim::kMillisecond, OrderFixture::frame(1, 3));
  const sim::SimTime early_head = fx.params.propagation;
  const sim::SimTime late_head = sim::kMillisecond + fx.params.propagation;
  // A limit between the two heads routes only the first transfer.
  EXPECT_EQ(fx.fabric.drain(early_head + 1), late_head);
  fx.engine.run();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].second, 0u);
  // The next drain finishes the job.
  EXPECT_EQ(fx.fabric.drain(sim::kNever), sim::kNever);
  fx.engine.run();
  ASSERT_EQ(fx.deliveries.size(), 2u);
}

TEST(Fabric, EqualHeadsBreakTiesBySourceNodeNotCallOrder) {
  OrderFixture fx;
  // Same ready instant on distinct uplinks -> identical head-at-switch
  // times. Send from the *higher* node first: canonical order must still
  // deliver node 1's frame first.
  fx.fabric.send(0, OrderFixture::frame(2, 0));
  fx.fabric.send(0, OrderFixture::frame(1, 0));
  fx.fabric.drain(sim::kNever);
  fx.engine.run();
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[0].second, 1u);
  EXPECT_EQ(fx.deliveries[1].second, 2u);
}

TEST(Fabric, SameSourceKeepsSendSequenceOrder) {
  OrderFixture fx;
  // Two frames from one node, queued back-to-back on its uplink. The second
  // has a later head; and even at equal heads the per-source sequence is the
  // final tie-break, so FIFO per source always holds.
  fx.fabric.send(0, OrderFixture::frame(0, 2));
  fx.fabric.send(0, OrderFixture::frame(0, 3));
  fx.fabric.drain(sim::kNever);
  fx.engine.run();
  ASSERT_EQ(fx.deliveries.size(), 2u);
  EXPECT_EQ(fx.deliveries[0].first, 2u);
  EXPECT_EQ(fx.deliveries[1].first, 3u);
}

TEST(Fabric, DeliveryOrderIsInvariantUnderEverySendInterleaving) {
  // The order in which nodes hand their sends to the fabric follows event
  // order, and the run loop decides where drains fall. The canonical
  // (head, src, seq) drain must erase both: replay the same send set under
  // every permutation of the cross-source order and several drain
  // schedules, and require the same delivery sequence. Same-source sends
  // keep their program order (the uplink serializes them), so permutations
  // run over one send per source, with head-time ties.
  struct Send {
    sim::SimTime ready;
    NodeId src, dst;
  };
  const sim::SimTime ms = sim::kMillisecond;
  const std::vector<std::vector<Send>> send_sets = {
      {{0, 0, 2}, {0, 1, 3}, {0, 2, 1}, {ms, 3, 0}},
      // 1->0 ties 3->0's head at node 0.
      {{ms, 0, 2}, {ms, 1, 0}, {0, 2, 3}, {ms, 3, 0}},
  };
  enum class Schedule { kOnce, kSplit, kPerHead };

  auto deliveries_for = [](const std::vector<Send>& sends,
                           const std::vector<std::size_t>& perm, Schedule schedule) {
    OrderFixture fx;
    std::vector<sim::SimTime> heads;
    for (const std::size_t i : perm) {
      const Send& s = sends[i];
      fx.fabric.send(s.ready, OrderFixture::frame(s.src, s.dst));
      heads.push_back(s.ready + fx.params.propagation);
    }
    if (schedule == Schedule::kSplit) {
      // A window boundary between the early group and the millisecond group.
      fx.fabric.drain(ms);
    } else if (schedule == Schedule::kPerHead) {
      // The finest schedule: one drain per distinct head.
      std::sort(heads.begin(), heads.end());
      for (const sim::SimTime h : heads) fx.fabric.drain(h + 1);
    }
    fx.fabric.drain(sim::kNever);
    fx.engine.run();
    return fx.deliveries;
  };

  std::uint64_t cases = 0;
  for (const std::vector<Send>& sends : send_sets) {
    std::vector<std::size_t> order(sends.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto expected = deliveries_for(sends, order, Schedule::kOnce);
    ASSERT_EQ(expected.size(), sends.size());
    do {
      for (const Schedule schedule :
           {Schedule::kOnce, Schedule::kSplit, Schedule::kPerHead}) {
        ASSERT_EQ(deliveries_for(sends, order, schedule), expected)
            << "interleaving #" << cases << " schedule=" << static_cast<int>(schedule)
            << " changed the delivery sequence";
        ++cases;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
  EXPECT_EQ(cases, 144u);  // 2 send sets x 4! send orders x 3 drain schedules
}

}  // namespace
}  // namespace cni::atm
