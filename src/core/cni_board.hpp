// The CNI board (paper §2) — the paper's primary contribution.
//
// Architecture (paper Figure 1): an OSIRIS-based ATM adaptor on the memory
// bus whose dual-ported memory holds Application Device Channel queue
// triplets, Application Interrupt Handler code segments, and the Message
// Cache's cached buffers + buffer map; a snoopy interface watches bus writes
// and a TLB/RTLB pair translates between host virtual and physical addresses
// for virtually-addressed DMA and reverse snoop lookups; the PATHFINDER
// classifier demultiplexes arriving packets to ADC receive queues or AIH
// protocol code running on the 33 MHz network processor.
#pragma once

#include <memory>
#include <vector>

#include "core/adc.hpp"
#include "core/aih.hpp"
#include "core/dual_port.hpp"
#include "core/message_cache.hpp"
#include "core/pathfinder.hpp"
#include "core/poll_governor.hpp"
#include "nic/osiris.hpp"
#include "obs/obs.hpp"

namespace cni::core {

struct CniConfig {
  std::uint64_t message_cache_bytes = 32 * 1024;  ///< Table 1 default
  std::uint32_t adc_slots = 256;                  ///< descriptors per ring

  // Ablation switches (the paper's three mechanisms, §2). Application
  // Device Channels are the board's substrate and stay on; the other two
  // can be disabled to isolate their contribution (bench/abl_mechanisms).
  bool enable_message_cache = true;  ///< off: every transmit DMAs, no binding
  bool enable_aih = true;            ///< off: protocol code runs on the host
  std::uint32_t tlb_entries = 64;
  std::uint32_t tlb_miss_penalty_nic_cycles = 16;
  /// An arrival gap past this means the host's poll loop has idled out and
  /// the board raises an interrupt instead (hybrid notification, §2.1).
  sim::SimDuration poll_interrupt_threshold = 2 * sim::kMillisecond;
};

class CniBoard final : public nic::OsirisBoard {
 public:
  CniBoard(sim::Engine& engine, atm::Fabric& fabric, nic::HostSystem& host,
           const nic::NicParams& params, atm::NodeId node, const CniConfig& config,
           mem::PageGeometry geometry);

  // ---- NicBoard interface ----
  void send_from_host(sim::SimThread& self, atm::Frame frame,
                      const SendOptions& opts) override;
  void send_from_protocol(sim::SimTime ready, atm::Frame frame,
                          const SendOptions& opts) override;
  void install_handler(nic::MsgType type, Handler handler,
                       std::uint64_t code_bytes) override;
  void bind_channel(nic::MsgType type, sim::SimChannel<atm::Frame>* channel) override;
  atm::Frame receive_app(sim::SimThread& self,
                         sim::SimChannel<atm::Frame>& channel) override;
  [[nodiscard]] std::uint64_t wakeup_cost_cycles() const override {
    return params_.host_poll_cycles;
  }

  // ---- CNI-specific surface ----

  /// Opens an Application Device Channel restricted to the given buffer
  /// region. Returns nullptr if board memory is exhausted.
  AdcChannel* open_channel(mem::VAddr region_base, std::uint64_t region_len);

  [[nodiscard]] MessageCache& message_cache() { return mcache_; }
  [[nodiscard]] const MessageCache& message_cache() const { return mcache_; }
  [[nodiscard]] Pathfinder& pathfinder() { return pathfinder_; }
  [[nodiscard]] DualPortMemory& board_memory() { return board_mem_; }
  [[nodiscard]] AihRegion& aih() { return aih_; }
  [[nodiscard]] const PollGovernor& poll_governor() const { return governor_; }
  [[nodiscard]] AdcChannel& system_channel() { return *system_channel_; }

 protected:
  void on_frame(atm::Frame frame) override;
  sim::SimTime rx_charge(RxContext& ctx, std::uint64_t cycles) override;
  sim::SimTime rx_transfer_to_host(RxContext& ctx, mem::VAddr va,
                                   std::uint64_t bytes) override;

 private:
  /// Transmit tail shared by host and protocol sends: descriptor handling,
  /// Message Cache probe (DMA only on miss), SAR, wire.
  void start_tx(sim::SimTime t, atm::Frame frame, const SendOptions& opts);

  /// Snoopy interface: a write transaction appeared on the memory bus.
  void on_snoop(mem::PAddr pa, std::uint64_t len);

  /// Installs the PATHFINDER pattern that routes `type` to `target`.
  void add_type_pattern(nic::MsgType type);

  CniConfig config_;
  mem::PageGeometry geometry_;
  DualPortMemory board_mem_;
  MessageCache mcache_;
  Pathfinder pathfinder_;
  AihRegion aih_;
  mem::Tlb tlb_;    ///< VA -> PA for virtually addressed DMA
  mem::Tlb rtlb_;   ///< PA -> VA for the snooper
  PollGovernor governor_;
  std::vector<std::unique_ptr<AdcChannel>> channels_;
  AdcChannel* system_channel_ = nullptr;

  // Observability handles, resolved once at construction (cold path); the
  // data path only ever dereferences them through the CNI_TRACE_*/CNI_OBS_*
  // macros, which skip null handles.
  obs::Hist* tx_wait_hist_ = nullptr;     ///< adc.tx_wait_ps
  obs::Gauge* tx_ring_gauge_ = nullptr;   ///< adc.tx_occupancy
  bool governor_intr_mode_ = false;       ///< last notification decision (edge detect)
};

}  // namespace cni::core
