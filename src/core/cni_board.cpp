#include "core/cni_board.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace cni::core {

CniBoard::CniBoard(sim::Engine& engine, atm::Fabric& fabric, nic::HostSystem& host,
                   const nic::NicParams& params, atm::NodeId node,
                   const CniConfig& config, mem::PageGeometry geometry)
    : OsirisBoard(engine, fabric, host, params, node),
      config_(config),
      geometry_(geometry),
      board_mem_(params.dual_port_mem_bytes),
      mcache_(geometry, config.message_cache_bytes),
      aih_(board_mem_),
      tlb_(config.tlb_entries, config.tlb_miss_penalty_nic_cycles),
      rtlb_(config.tlb_entries, config.tlb_miss_penalty_nic_cycles),
      governor_(config.poll_interrupt_threshold) {
  // Resolve observability handles once; obs_ (from the Osiris substrate) is
  // nullptr when the host carries no obs context (standalone test boards).
  if (obs_ != nullptr) {
    tx_wait_hist_ = obs_->metrics().histogram("adc.tx_wait_ps");
    tx_ring_gauge_ = obs_->metrics().gauge("adc.tx_occupancy");
  }

  // The Message Cache's cached buffers live in dual-ported memory.
  auto mc_region = board_mem_.alloc(config.message_cache_bytes);
  CNI_CHECK_MSG(mc_region.has_value(), "Message Cache does not fit board memory");

  // The snoopy interface watches every write transaction on the host bus.
  host_.bus().add_snooper(
      [this](mem::PAddr pa, std::uint64_t len) { on_snoop(pa, len); });

  // The system device channel carries DSM/system traffic; it may reference
  // any host buffer (the kernel opened it at boot with a full-space region).
  system_channel_ = open_channel(0, ~std::uint64_t{0});
  CNI_CHECK(system_channel_ != nullptr);
}

AdcChannel* CniBoard::open_channel(mem::VAddr region_base, std::uint64_t region_len) {
  auto ch = AdcChannel::open(board_mem_, static_cast<std::uint32_t>(channels_.size()),
                             region_base, region_len, config_.adc_slots);
  if (!ch.has_value()) return nullptr;
  // cni-lint: allow(hot-path-alloc): channels open at application setup
  // (one per exported region), not per message.
  channels_.push_back(std::make_unique<AdcChannel>(std::move(*ch)));
  return channels_.back().get();
}

void CniBoard::add_type_pattern(nic::MsgType type) {
  // Match the MsgHeader::type field (bytes 0..1 of the payload). The VCI is
  // deliberately not enough (paper §2.1): one application multiplexes many
  // protocol actions over one circuit, so the pattern inspects header bytes.
  Pattern p;
  p.comparisons.push_back(Comparison{0, 0xFFFF, type});
  p.target = type;
  pathfinder_.add_pattern(p);
}

void CniBoard::install_handler(nic::MsgType type, Handler handler,
                               std::uint64_t code_bytes) {
  // Swap the relocatable object code into a free AIH segment and program the
  // PATHFINDER to activate it on a header match.
  auto seg = aih_.install(type, code_bytes);
  if (!seg.has_value()) {
    // Name the numbers before dying: which handler, how much it wanted, and
    // what the board already holds — "does not fit" alone is undebuggable.
    const core::DualPortMemory& mem = aih_.board_memory();
    std::fprintf(stderr,
                 "cni: AIH install failed: handler type %u needs %llu bytes, but the "
                 "board holds %zu segments / %llu handler bytes and has %llu of %llu "
                 "board-memory bytes free\n",
                 static_cast<unsigned>(type),
                 static_cast<unsigned long long>(code_bytes), aih_.segment_count(),
                 static_cast<unsigned long long>(aih_.resident_bytes()),
                 static_cast<unsigned long long>(mem.free_bytes()),
                 static_cast<unsigned long long>(mem.capacity()));
  }
  CNI_CHECK_MSG(seg.has_value(), "AIH segment does not fit board memory");
  host_.bus().dma_read(engine_.now(), code_bytes);  // one-time swap-in transfer
  add_type_pattern(type);
  OsirisBoard::install_handler(type, std::move(handler), code_bytes);
}

void CniBoard::bind_channel(nic::MsgType type, sim::SimChannel<atm::Frame>* channel) {
  add_type_pattern(type);
  OsirisBoard::bind_channel(type, channel);
}

void CniBoard::send_from_host(sim::SimThread& self, atm::Frame frame,
                              const SendOptions& opts) {
  // Host-side cost: write the descriptor into the mapped transmit queue
  // (protection is verified here, at enqueue — never again on this path) and,
  // on a write-back host, flush the buffer so memory (and therefore the
  // snooped Message Cache copy) is current before the board touches it.
  std::uint64_t cycles = params_.adc_enqueue_cycles;
  if (opts.source_va != 0) {
    const std::uint64_t span = opts.source_len != 0 ? opts.source_len : frame.size();
    cycles += host_.flush_buffer(opts.source_va, span);
  }

  const nic::MsgHeader hdr = frame.header<nic::MsgHeader>();
  const AdcDescriptor desc{opts.source_va, static_cast<std::uint32_t>(frame.size()),
                           hdr.type, hdr.flags};
  CNI_CHECK_MSG(system_channel_->enqueue_tx(desc),
                "system ADC transmit ring rejected a descriptor");
  CNI_TRACE_INSTANT(obs_, engine_.now(), obs::Component::kAdc,
                    obs::Event::kAdcEnqueueTx, frame.size(),
                    system_channel_->tx_ring().count());
  CNI_OBS_GAUGE_SET(tx_ring_gauge_, system_channel_->tx_ring().count());
  host_.charge_overhead(self, cycles);

  // The transmit processor consumes the descriptor asynchronously.
  const auto taken = system_channel_->dequeue_tx();
  CNI_CHECK(taken.has_value());
  CNI_OBS_GAUGE_SET(tx_ring_gauge_, system_channel_->tx_ring().count());
  start_tx(engine_.now(), std::move(frame), opts);
}

void CniBoard::send_from_protocol(sim::SimTime ready, atm::Frame frame,
                                  const SendOptions& opts) {
  // Protocol code already runs on the board: no host CPU is involved at all.
  start_tx(ready, std::move(frame), opts);
}

void CniBoard::start_tx(sim::SimTime t, atm::Frame frame, const SendOptions& opts) {
  const nic::MsgHeader hdr = frame.header<nic::MsgHeader>();
  CNI_LOG_DEBUG("board%u start_tx type=%x dst=%u seq=%u", node_, hdr.type, frame.dst,
                hdr.seq);
  CNI_TRACE_MINT(obs_, frame);
  const bool traced = frame.trace != 0;
  const std::uint64_t bytes = frame.size();
  // Queueing delay behind earlier descriptors: the gap between the enqueue
  // instant and the transmit processor picking this frame up.
  [[maybe_unused]] const sim::SimDuration tx_wait =
      tx_proc_.busy_until() > t ? tx_proc_.busy_until() - t : 0;
  CNI_OBS_HIST(tx_wait_hist_, tx_wait);
  CNI_TRACE_SPAN(obs_, t, t + tx_wait, obs::Component::kAdc, obs::Event::kAdcTxWait,
                 bytes, hdr.type);
  sim::SimTime cursor = tx_proc_.occupy(t, nic_clock_.cycles(params_.per_frame_tx_cycles));

  auto& st = host_.stats();
  if (opts.source_va != 0 && !config_.enable_message_cache) {
    // Ablation: no Message Cache — every transmit pulls its data across the
    // bus, like the standard board (ADC and PATHFINDER still apply).
    cursor = host_.bus().dma_read(cursor, bytes);
    ++st.dma_transfers;
    st.dma_bytes += bytes;
    CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kDma, obs::Event::kDmaTransfer,
                      bytes, 0);
  } else if (opts.source_va != 0) {
    // Transmit caching: probe the buffer map, one lookup per resident page.
    // The probed span is the *host buffer* the payload derives from — for a
    // DSM diff that is the whole page the protocol code reads, so a bound
    // page lets the NIC build the reply without touching the host at all.
    const std::uint64_t span = opts.source_len != 0 ? opts.source_len : bytes;
    const std::uint64_t pages = util::ceil_div(span, geometry_.size());
    cursor = tx_proc_.occupy(cursor,
                             nic_clock_.cycles(params_.mcache_lookup_cycles * pages));
    ++st.mcache_tx_lookups;
    // A non-binding send (a diff reply) probes the whole source span but on
    // a miss moves only the frame's bytes; a binding send pulls and binds
    // the whole buffer, per paper 2.2.
    const bool hit = mcache_.lookup_tx(opts.source_va, span);
    if (hit) {
      // Transmit straight from the cached buffers — no DMA.
      ++st.mcache_tx_hits;
      CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache,
                        obs::Event::kMCacheLookupHit, opts.source_va, span);
    } else {
      CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache,
                        obs::Event::kMCacheLookupMiss, opts.source_va, span);
      [[maybe_unused]] const sim::SimTime miss_start = cursor;
      // Pull the buffer across the bus (virtually addressed DMA via the
      // board TLB), then bind it if the header asked for caching.
      std::uint64_t tlb_cycles = 0;
      tlb_.lookup(geometry_.page_of(opts.source_va),
                  [this](mem::PageNum vpn) {
                    return std::optional<mem::PageNum>(host_.page_table().frame_of(vpn));
                  },
                  &tlb_cycles);
      cursor += nic_clock_.cycles(tlb_cycles);
      cursor = host_.bus().dma_read(cursor, opts.cacheable ? span : bytes);
      ++st.dma_transfers;
      st.dma_bytes += bytes;
      CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kDma, obs::Event::kDmaTransfer,
                        opts.cacheable ? span : bytes, 0);
      if (opts.cacheable) {
        const std::uint64_t before = mcache_.evictions();
        mcache_.insert(opts.source_va, span);
        const std::uint64_t evicted = mcache_.evictions() - before;
        st.mcache_evictions += evicted;
        CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache,
                          obs::Event::kMCacheInsert, opts.source_va, span);
        if (evicted != 0) {
          CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache,
                            obs::Event::kMCacheEvict, evicted, span);
        }
      }
      if (traced) {
        // Attribute the miss's pull time as a sub-span of the transmit
        // stage: the critical-path tool carves it out of the tx bucket.
        CNI_TRACE_CAUSAL(obs_, miss_start, cursor, obs::Stage::kMCache,
                         obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kMCache),
                         obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kTx));
      }
    }
  }

  const sim::SimTime sar_done = tx_proc_.occupy(cursor, sar_time(bytes));
  ++st.messages_sent;
  st.bytes_sent += bytes;
  CNI_TRACE_SPAN(obs_, t, sar_done, obs::Component::kNic, obs::Event::kTxFrame, bytes,
                 hdr.type);
  if (traced) {
    // The transmit stage spans enqueue pickup to sar completion; its parent
    // is the cross-frame token a protocol layer stamped (0 for a chain root).
    CNI_TRACE_CAUSAL(obs_, t, sar_done, obs::Stage::kTx,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kTx),
                     (frame.trace & 0xffu) != 0 ? frame.trace : 0);
  }
  const atm::DeliveryTiming timing = fabric_.send(sar_done, std::move(frame));
  st.cells_sent += timing.cells;
}

void CniBoard::on_snoop(mem::PAddr pa, std::uint64_t len) {
  // Physical target -> RTLB -> host virtual page -> buffer map. The RTLB
  // makes the reverse translation cheap; its miss penalty is absorbed by the
  // snoop pipeline (it never stalls the CPU), so we track no time here.
  std::uint64_t unused = 0;
  auto vpn = rtlb_.lookup(host_.page_table().geometry().page_of(pa),
                          [this](mem::PageNum ppn) { return host_.page_table().vpn_of(ppn); },
                          &unused);
  if (!vpn.has_value()) return;  // not a mapped page: snoop aborted
  const mem::VAddr va = geometry_.base_of(*vpn) | geometry_.offset_of(pa);
  if (mcache_.snoop_write(va, len)) {
    ++host_.stats().mcache_snoop_updates;
    CNI_TRACE_INSTANT(obs_, engine_.now(), obs::Component::kMCache,
                      obs::Event::kMCacheSnoop, va, len);
  }
}

void CniBoard::on_frame(atm::Frame frame) {
  {
    const nic::MsgHeader h = frame.header<nic::MsgHeader>();
    CNI_LOG_DEBUG("board%u on_frame type=%x src=%u seq=%u", node_, h.type, h.src_node, h.seq);
  }
  const sim::SimTime arrival = engine_.now();
  const std::uint64_t bytes = frame.size();
  sim::SimTime cursor = rx_proc_.occupy(
      arrival, nic_clock_.cycles(params_.per_frame_rx_cycles) + sar_time(bytes));

  // PATHFINDER classification: full pattern walk on the first fragment, one
  // comparison for each of the rest.
  const nic::MsgHeader hdr = frame.header<nic::MsgHeader>();
  const bool traced = frame.trace != 0;
  [[maybe_unused]] std::uint64_t rx_parent = 0;
  if (traced) {
    rx_parent = trace_fabric_arrival(arrival, hdr.src_node, hdr.seq, frame.fab);
  }
  const std::uint64_t fragments = fabric_.cells().cells_for(bytes);
  const Pathfinder::Result cls = pathfinder_.classify(frame.bytes(), fragments);
  CNI_CHECK_MSG(cls.matched, "PATHFINDER found no pattern for an arriving frame");
  cursor = rx_proc_.occupy(
      cursor,
      nic_clock_.cycles(cls.comparisons * params_.pathfinder_cycles_per_comparison));
  CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kPathfinder,
                    obs::Event::kPathfinderClassify, cls.comparisons, 0);
  CNI_TRACE_SPAN(obs_, arrival, cursor, obs::Component::kNic, obs::Event::kRxFrame,
                 bytes, hdr.type);

  // Receive caching (paper §2.2): a message whose header carries the cache
  // bit binds its pages in the buffer map on the way in.
  auto& st = host_.stats();
  if (config_.enable_message_cache && (hdr.flags & nic::kFlagCacheable) != 0 &&
      hdr.buffer_va != 0) {
    const std::uint64_t before = mcache_.evictions();
    mcache_.insert(hdr.buffer_va, bytes);
    const std::uint64_t evicted = mcache_.evictions() - before;
    st.mcache_evictions += evicted;
    ++st.mcache_rx_inserts;
    CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache, obs::Event::kMCacheInsert,
                      hdr.buffer_va, bytes);
    if (evicted != 0) {
      CNI_TRACE_INSTANT(obs_, cursor, obs::Component::kMCache, obs::Event::kMCacheEvict,
                        evicted, bytes);
    }
  }

  if (Handler* h = find_handler(hdr.type); h != nullptr) {
    if (!config_.enable_aih) {
      // Ablation: no Application Interrupt Handlers — the protocol message
      // is DMAed up and handled on the host after an interrupt, exactly the
      // standard board's control path (ADC/Message Cache still apply).
      const sim::SimTime dma_done = host_.bus().dma_write(cursor, 0, bytes);
      ++st.host_interrupts;
      CNI_TRACE_INSTANT(obs_, dma_done, obs::Component::kDma, obs::Event::kDmaTransfer,
                        bytes, 1);
      const sim::Clock cpu = host_.cpu_clock();
      const std::uint64_t intr_cycles =
          cpu.to_cycles_ceil(params_.interrupt_latency) + params_.kernel_recv_cycles;
      host_.steal_cycles(intr_cycles);
      const sim::SimTime dispatch = dma_done + cpu.cycles(intr_cycles);
      CNI_TRACE_INSTANT(obs_, dispatch, obs::Component::kHost, obs::Event::kHostInterrupt,
                        bytes, 0);
      CNI_TRACE_INSTANT(obs_, dispatch, obs::Component::kNic, obs::Event::kAihDispatch,
                        hdr.type, 0);
      if (traced) {
        CNI_TRACE_CAUSAL(obs_, arrival, dispatch, obs::Stage::kRx,
                         obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kRx),
                         rx_parent);
      }
      // The dispatch event fires at `dispatch`, so the callback rebuilds it
      // from engine_.now() — capturing it would push the closure past
      // InlineFn's inline budget now that Parts carries the causal fields.
      engine_.schedule_at(dispatch, atm::FrameTask(
                                        [this, h](atm::Frame f) {
                                          run_handler(*h, std::move(f), /*on_nic=*/false);
                                        },
                                        std::move(frame)));
      return;
    }
    // Control transfers to the Application Interrupt Handler on the board.
    const sim::SimTime dispatch =
        rx_proc_.occupy(cursor, nic_clock_.cycles(params_.aih_dispatch_cycles));
    CNI_TRACE_INSTANT(obs_, dispatch, obs::Component::kNic, obs::Event::kAihDispatch,
                      hdr.type, 1);
    if (traced) {
      CNI_TRACE_CAUSAL(obs_, arrival, dispatch, obs::Stage::kRx,
                       obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kRx),
                       rx_parent);
    }
    engine_.schedule_at(dispatch, atm::FrameTask(
                                      [this, h](atm::Frame f) {
                                        run_handler(*h, std::move(f), /*on_nic=*/true);
                                      },
                                      std::move(frame)));
    return;
  }

  // Application-level message: DMA the payload to the posted host buffer,
  // then notify by poll pickup or (after a long idle gap) by interrupt.
  sim::SimTime done = cursor;
  if (hdr.buffer_va != 0) {
    const mem::PAddr pa = host_.page_table().translate(hdr.buffer_va);
    done = host_.bus().dma_write(cursor, pa, bytes);
    host_.cache_invalidate(hdr.buffer_va, bytes);
    ++st.dma_transfers;
    st.dma_bytes += bytes;
    CNI_TRACE_INSTANT(obs_, done, obs::Component::kDma, obs::Event::kDmaTransfer,
                      bytes, 1);
  }
  const bool interrupt = governor_.on_arrival(arrival);
  if (interrupt != governor_intr_mode_) {
    // Edge between notification modes: the hybrid governor switched between
    // poll pickup (busy stream) and interrupts (idle host).
    governor_intr_mode_ = interrupt;
    CNI_TRACE_INSTANT(obs_, arrival, obs::Component::kGovernor,
                      obs::Event::kGovernorModeSwitch, interrupt ? 1 : 0,
                      governor_.average_gap());
  }
  if (interrupt) {
    ++st.host_interrupts;
    const std::uint64_t intr_cycles =
        host_.cpu_clock().to_cycles_ceil(params_.interrupt_latency);
    host_.steal_cycles(intr_cycles);
    done += host_.cpu_clock().cycles(intr_cycles);
    CNI_TRACE_INSTANT(obs_, done, obs::Component::kGovernor,
                      obs::Event::kGovernorInterrupt, governor_.average_gap(), 0);
  } else {
    CNI_TRACE_INSTANT(obs_, done, obs::Component::kGovernor,
                      obs::Event::kGovernorPoll, governor_.average_gap(), 0);
  }
  if (traced) {
    CNI_TRACE_CAUSAL(obs_, arrival, cursor, obs::Stage::kRx,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kRx),
                     rx_parent);
    // Delivery covers DMA to the posted buffer plus the notification cost.
    CNI_TRACE_CAUSAL(obs_, cursor, done, obs::Stage::kDeliver,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kDeliver),
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kRx));
  }
  deliver_to_channel(done, std::move(frame));
}

sim::SimTime CniBoard::rx_charge(RxContext& ctx, std::uint64_t cycles) {
  if (!ctx.on_nic()) {
    // AIH ablation: the handler runs on the host, stealing CPU cycles.
    host_.steal_cycles(cycles);
    return ctx.cursor() + host_.cpu_clock().cycles(cycles);
  }
  // Handler code executes on the 33 MHz network processor.
  return rx_proc_.occupy(ctx.cursor(), nic_clock_.cycles(cycles));
}

sim::SimTime CniBoard::rx_transfer_to_host(RxContext& ctx, mem::VAddr va,
                                           std::uint64_t bytes) {
  std::uint64_t tlb_cycles = 0;
  tlb_.lookup(geometry_.page_of(va),
              [this](mem::PageNum vpn) {
                return std::optional<mem::PageNum>(host_.page_table().frame_of(vpn));
              },
              &tlb_cycles);
  const mem::PAddr pa = host_.page_table().translate(va);
  const sim::SimTime start = ctx.cursor() + nic_clock_.cycles(tlb_cycles);
  const sim::SimTime done = host_.bus().dma_write(start, pa, bytes);
  host_.cache_invalidate(va, bytes);
  auto& st = host_.stats();
  ++st.dma_transfers;
  st.dma_bytes += bytes;
  CNI_TRACE_INSTANT(obs_, done, obs::Component::kDma, obs::Event::kDmaTransfer, bytes, 1);
  return done;
}

atm::Frame CniBoard::receive_app(sim::SimThread& self,
                                 sim::SimChannel<atm::Frame>& channel) {
  atm::Frame f = channel.receive(self);
  // Poll pickup: the application reads the receive queue head from the
  // mapped dual-port memory.
  ++host_.stats().host_polls;
  host_.charge_overhead(self, params_.host_poll_cycles);
  return f;
}

}  // namespace cni::core
