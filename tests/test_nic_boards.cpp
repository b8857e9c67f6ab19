// Board-level behaviour: transmit/receive caching, snooping, AIH dispatch,
// kernel/interrupt paths on the standard NIC.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "apps/runner.hpp"
#include "cluster/cluster.hpp"
#include "core/cni_board.hpp"
#include "nic/osiris.hpp"
#include "nic/wire.hpp"
#include "sim/channel.hpp"

namespace cni {
namespace {

using apps::make_params;
using cluster::BoardKind;

constexpr nic::MsgType kPing = nic::kTypeAppBase + 1;
constexpr nic::MsgType kProto = nic::kTypeHandlerBase + 99;

atm::Frame make_msg(cluster::Cluster& cl, std::uint32_t src, std::uint32_t dst,
                    nic::MsgType type, std::uint64_t body_bytes, mem::VAddr buffer_va,
                    bool cacheable) {
  nic::MsgHeader h;
  h.type = type;
  h.flags = cacheable ? nic::kFlagCacheable : 0;
  h.src_node = src;
  h.seq = cl.node(src).board().next_seq();
  h.buffer_va = buffer_va;
  atm::Frame f = atm::Frame::blank(src, dst, 1, sizeof(h) + body_bytes);
  std::memcpy(f.mutable_bytes().data(), &h, sizeof(h));
  return f;
}

TEST(CniBoard, TransmitCachingSkipsSecondDma) {
  cluster::Cluster cl(make_params(BoardKind::kCni, 2));
  sim::SimChannel<atm::Frame> rx;
  cl.node(1).board().bind_channel(kPing, &rx);
  const mem::VAddr buf = mem::kSharedBase;

  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i != 0) {
      cl.node(1).board().receive_app(t, rx);
      cl.node(1).board().receive_app(t, rx);
      return;
    }
    nic::NicBoard::SendOptions opts{buf, 4096, true};
    cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
    t.delay(sim::kMillisecond);
    const std::uint64_t dma_before = cl.stats().node(0).dma_transfers;
    cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
    t.delay(sim::kMillisecond);
    EXPECT_EQ(cl.stats().node(0).dma_transfers, dma_before);  // no second DMA
  });
  EXPECT_EQ(cl.stats().node(0).mcache_tx_lookups, 2u);
  EXPECT_EQ(cl.stats().node(0).mcache_tx_hits, 1u);
}

TEST(CniBoard, SnoopedWritesKeepCachedBufferConsistent) {
  cluster::Cluster cl(make_params(BoardKind::kCni, 2));
  sim::SimChannel<atm::Frame> rx;
  cl.node(1).board().bind_channel(kPing, &rx);
  const mem::VAddr buf = mem::kSharedBase;

  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i != 0) {
      cl.node(1).board().receive_app(t, rx);
      cl.node(1).board().receive_app(t, rx);
      return;
    }
    auto& cpu = cl.node(0).cpu();
    nic::NicBoard::SendOptions opts{buf, 4096, true};
    cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
    t.delay(sim::kMillisecond);
    // The CPU rewrites the buffer. The flush before the next send puts the
    // dirty lines on the bus, where the snooper folds them into the bound
    // buffer — which therefore STAYS valid and still hits.
    for (int w = 0; w < 512; ++w) cpu.mem_access(buf + w * 8, true);
    cpu.sync(t);
    cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
    t.delay(sim::kMillisecond);
  });
  EXPECT_EQ(cl.stats().node(0).mcache_tx_hits, 1u);
  EXPECT_GT(cl.stats().node(0).mcache_snoop_updates, 0u);
}

TEST(CniBoard, ReceiveCachingEnablesMigrationFastPath) {
  // Node 0 pushes a page to node 1 (receive-cached there); node 1 then
  // forwards the same buffer to node 0 — and transmits without any DMA.
  cluster::Cluster cl(make_params(BoardKind::kCni, 2));
  sim::SimChannel<atm::Frame> rx0;
  sim::SimChannel<atm::Frame> rx1;
  cl.node(0).board().bind_channel(kPing, &rx0);
  cl.node(1).board().bind_channel(kPing, &rx1);
  const mem::VAddr page = mem::kSharedBase;

  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i == 0) {
      nic::NicBoard::SendOptions opts{page, 4096, true};
      cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, page, true),
                                        opts);
      cl.node(0).board().receive_app(t, rx0);
    } else {
      cl.node(1).board().receive_app(t, rx1);
      EXPECT_TRUE(cl.node(1).cni().message_cache().contains(page, 4096));
      nic::NicBoard::SendOptions opts{page, 4096, true};
      cl.node(1).board().send_from_host(t, make_msg(cl, 1, 0, kPing, 4096, page, true),
                                        opts);
    }
  });
  EXPECT_EQ(cl.stats().node(1).mcache_rx_inserts, 1u);
  EXPECT_EQ(cl.stats().node(1).mcache_tx_hits, 1u);  // migration needed no DMA
}

TEST(StandardNic, AlwaysDmasAndInterrupts) {
  cluster::Cluster cl(make_params(BoardKind::kStandard, 2));
  sim::SimChannel<atm::Frame> rx;
  cl.node(1).board().bind_channel(kPing, &rx);
  const mem::VAddr buf = mem::kSharedBase;

  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i != 0) {
      cl.node(1).board().receive_app(t, rx);
      cl.node(1).board().receive_app(t, rx);
      return;
    }
    nic::NicBoard::SendOptions opts{buf, 4096, true};
    for (int k = 0; k < 2; ++k) {
      cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
      t.delay(sim::kMillisecond);
    }
  });
  EXPECT_EQ(cl.stats().node(0).mcache_tx_lookups, 0u);  // no Message Cache
  EXPECT_GE(cl.stats().node(0).dma_transfers, 2u);      // every send DMAs
  EXPECT_EQ(cl.stats().node(1).host_interrupts, 2u);    // every receive interrupts
  EXPECT_GT(cl.stats().node(1).synch_overhead_cycles, 0u);
}

TEST(Boards, HandlerRunsOnNicForCniAndOnHostForStandard) {
  for (BoardKind kind : {BoardKind::kCni, BoardKind::kStandard}) {
    cluster::Cluster cl(make_params(kind, 2));
    bool handled = false;
    bool on_nic = false;
    cl.node(1).board().install_handler(
        kProto,
        [&](nic::NicBoard::RxContext& ctx, const atm::Frame&) {
          handled = true;
          on_nic = ctx.on_nic();
          ctx.charge(500);
        },
        8192);
    cl.run([&](std::size_t i, sim::SimThread& t) {
      if (i == 0) {
        cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kProto, 64, 0, false),
                                          {});
        t.delay(2 * sim::kMillisecond);
      } else {
        t.delay(2 * sim::kMillisecond);
      }
    });
    EXPECT_TRUE(handled);
    EXPECT_EQ(on_nic, kind == BoardKind::kCni);
    if (kind == BoardKind::kStandard) {
      EXPECT_EQ(cl.stats().node(1).host_interrupts, 1u);
    } else {
      EXPECT_EQ(cl.stats().node(1).host_interrupts, 0u);
    }
  }
}

TEST(Boards, HandlerReplyRoundTrip) {
  cluster::Cluster cl(make_params(BoardKind::kCni, 2));
  sim::SimChannel<atm::Frame> rx;
  cl.node(0).board().bind_channel(kPing, &rx);
  cl.node(1).board().install_handler(
      kProto,
      [&](nic::NicBoard::RxContext& ctx, const atm::Frame& f) {
        ctx.charge(200);
        ctx.send(make_msg(cl, 1, f.header<nic::MsgHeader>().src_node, kPing, 16, 0, false),
                 {});
      },
      8192);
  bool got_reply = false;
  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i == 0) {
      cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kProto, 64, 0, false), {});
      cl.node(0).board().receive_app(t, rx);
      got_reply = true;
    }
  });
  EXPECT_TRUE(got_reply);
}

TEST(Boards, EveryInstalledHandlerTypeDispatches) {
  // Handlers sit in a table indexed by type - kTypeHandlerBase. Installing
  // out of order grows the table past earlier entries; each installed type
  // must still reach its own handler, and nothing else may find one.
  const nic::MsgType kTypes[] = {kProto, nic::kTypeHandlerBase, nic::kTypeHandlerBase + 13,
                                 nic::kTypeHandlerBase + 50};
  for (BoardKind kind : {BoardKind::kCni, BoardKind::kStandard}) {
    cluster::Cluster cl(make_params(kind, 2));
    auto& board = dynamic_cast<nic::OsirisBoard&>(cl.node(1).board());
    EXPECT_EQ(board.find_handler(nic::kTypeHandlerBase), nullptr);  // an empty table
    std::vector<nic::MsgType> seen;
    for (const nic::MsgType type : kTypes) {
      board.install_handler(
          type,
          [&seen, type](nic::NicBoard::RxContext&, const atm::Frame& f) {
            EXPECT_EQ(f.header<nic::MsgHeader>().type, type);
            seen.push_back(type);
          },
          4096);
    }
    for (const nic::MsgType type : kTypes) EXPECT_NE(board.find_handler(type), nullptr);
    EXPECT_EQ(board.find_handler(kPing), nullptr);                        // an app type
    EXPECT_EQ(board.find_handler(nic::kTypeHandlerBase + 1), nullptr);    // a gap
    EXPECT_EQ(board.find_handler(nic::kTypeHandlerBase + 100), nullptr);  // past the end
    cl.run([&](std::size_t i, sim::SimThread& t) {
      if (i != 0) return;
      for (const nic::MsgType type : kTypes) {
        cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, type, 64, 0, false), {});
        t.delay(sim::kMillisecond);
      }
    });
    EXPECT_EQ(seen, std::vector<nic::MsgType>(std::begin(kTypes), std::end(kTypes)));
  }
}

TEST(BoardsDeathTest, HandlerInstallRejectsDuplicatesAndAppTypes) {
  const auto handler = [](nic::NicBoard::RxContext&, const atm::Frame&) {};
  for (BoardKind kind : {BoardKind::kCni, BoardKind::kStandard}) {
    cluster::Cluster cl(make_params(kind, 2));
    nic::NicBoard& board = cl.node(1).board();
    board.install_handler(kProto, handler, 4096);
    EXPECT_DEATH(board.install_handler(kProto, handler, 4096), "already");
    EXPECT_DEATH(board.install_handler(kPing, handler, 4096), "kTypeHandlerBase");
  }
}

TEST(Boards, CniOneWayLatencyBeatsStandard) {
  sim::SimTime latency[2] = {0, 0};
  int idx = 0;
  for (BoardKind kind : {BoardKind::kCni, BoardKind::kStandard}) {
    cluster::Cluster cl(make_params(kind, 2));
    sim::SimChannel<atm::Frame> rx;
    cl.node(1).board().bind_channel(kPing, &rx);
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    cl.run([&](std::size_t i, sim::SimThread& t) {
      if (i == 0) {
        t0 = t.engine().now();
        cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 1024, 0, false),
                                          {});
      } else {
        cl.node(1).board().receive_app(t, rx);
        t1 = t.engine().now();
      }
    });
    latency[idx++] = t1 - t0;
  }
  EXPECT_LT(latency[0], latency[1]);
}

TEST(CniBoard, EvictionCausesRelookupMiss) {
  cluster::SimParams params = make_params(BoardKind::kCni, 2, 4096, /*mcache=*/2 * 4096);
  cluster::Cluster cl(params);
  sim::SimChannel<atm::Frame> rx;
  cl.node(1).board().bind_channel(kPing, &rx);

  cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i != 0) {
      for (int k = 0; k < 4; ++k) cl.node(1).board().receive_app(t, rx);
      return;
    }
    // Three distinct pages through a 2-buffer cache, then resend the first.
    for (mem::VAddr va : {mem::kSharedBase, mem::kSharedBase + 4096,
                          mem::kSharedBase + 8192, mem::kSharedBase}) {
      nic::NicBoard::SendOptions opts{va, 4096, true};
      cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true), opts);
      t.delay(sim::kMillisecond);
    }
  });
  EXPECT_EQ(cl.stats().node(0).mcache_tx_hits, 0u);  // first page was evicted
  EXPECT_GT(cl.stats().node(0).mcache_evictions, 0u);
}


TEST(Ablation, MechanismsDisableIndependently) {
  // Message Cache off: every transmit DMAs, no lookups counted as hits.
  cluster::SimParams no_mc = make_params(BoardKind::kCni, 2);
  no_mc.cni.enable_message_cache = false;
  {
    cluster::Cluster cl(no_mc);
    sim::SimChannel<atm::Frame> rx;
    cl.node(1).board().bind_channel(kPing, &rx);
    cl.run([&](std::size_t i, sim::SimThread& t) {
      if (i != 0) {
        cl.node(1).board().receive_app(t, rx);
        cl.node(1).board().receive_app(t, rx);
        return;
      }
      nic::NicBoard::SendOptions opts{mem::kSharedBase, 4096, true};
      for (int k = 0; k < 2; ++k) {
        cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kPing, 4096, 0, true),
                                          opts);
        t.delay(sim::kMillisecond);
      }
    });
    EXPECT_EQ(cl.stats().node(0).mcache_tx_hits, 0u);
    EXPECT_GE(cl.stats().node(0).dma_transfers, 2u);
  }

  // AIH off: protocol handlers interrupt the host, like the standard board.
  cluster::SimParams no_aih = make_params(BoardKind::kCni, 2);
  no_aih.cni.enable_aih = false;
  {
    cluster::Cluster cl(no_aih);
    bool on_nic = true;
    cl.node(1).board().install_handler(
        kProto,
        [&](nic::NicBoard::RxContext& ctx, const atm::Frame&) {
          on_nic = ctx.on_nic();
          ctx.charge(100);
        },
        4096);
    cl.run([&](std::size_t i, sim::SimThread& t) {
      if (i == 0) {
        cl.node(0).board().send_from_host(t, make_msg(cl, 0, 1, kProto, 64, 0, false),
                                          {});
      }
      t.delay(2 * sim::kMillisecond);
    });
    EXPECT_FALSE(on_nic);
    EXPECT_EQ(cl.stats().node(1).host_interrupts, 1u);
  }
}

}  // namespace
}  // namespace cni
