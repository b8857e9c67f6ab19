// OSIRIS board substrate.
//
// Both boards in the study are built on the OSIRIS ATM adaptor (Druschel,
// Peterson & Davie 1994): on-board dual-ported memory, a DMA engine on the
// host memory bus, and transmit/receive processors that perform AAL5-style
// segmentation and reassembly at 33 MHz. This base class models that shared
// datapath; CniBoard and StandardNic specialize the send/receive control
// paths on top of it.
#pragma once

#include <cstdint>
#include <vector>

#include "atm/fabric.hpp"
#include "nic/board.hpp"
#include "util/flat_map.hpp"

namespace cni::nic {

class OsirisBoard : public NicBoard {
 public:
  OsirisBoard(sim::Engine& engine, atm::Fabric& fabric, HostSystem& host,
              const NicParams& params, atm::NodeId node);

  void install_handler(MsgType type, Handler handler, std::uint64_t code_bytes) override;
  void bind_channel(MsgType type, sim::SimChannel<atm::Frame>* channel) override;
  [[nodiscard]] const NicParams& params() const override { return params_; }

  [[nodiscard]] atm::NodeId node() const { return node_; }
  [[nodiscard]] const sim::Clock& nic_clock() const { return nic_clock_; }

  std::uint32_t next_seq() override { return seq_++; }

  /// The handler installed for `type`, or nullptr (an app type, or a
  /// handler type nothing installed).
  [[nodiscard]] Handler* find_handler(MsgType type);

 protected:
  /// Frame arrival from the fabric (last bit on board at engine.now()).
  virtual void on_frame(atm::Frame frame) = 0;

  /// SAR time for a payload of `bytes` on a 33 MHz NIC processor.
  [[nodiscard]] sim::SimDuration sar_time(std::uint64_t bytes) const;

  [[nodiscard]] sim::SimChannel<atm::Frame>* find_channel(MsgType type);

  /// Schedules delivery of an app frame into its bound channel at time `t`.
  void deliver_to_channel(sim::SimTime t, atm::Frame frame);

  /// Emits the causal records for a traced frame's fabric traversal (the
  /// packed breakdown the fabric left in Frame::fab) at the deterministic
  /// delivery instant, and returns the token of the last fabric stage — the
  /// parent for the board's receive span. Returns 0 when not tracing.
  std::uint64_t trace_fabric_arrival(sim::SimTime arrival, std::uint32_t origin,
                                     std::uint32_t seq, std::uint64_t fab);

  /// Runs a protocol handler at the current engine instant (the dispatch
  /// event's fire time): builds the RxContext, hands a traced frame's
  /// handler token to it (replies inherit it as their causal parent), and
  /// emits the handler's causal span once it returns.
  void run_handler(const Handler& h, atm::Frame frame, bool on_nic);

  sim::Engine& engine_;
  atm::Fabric& fabric_;
  HostSystem& host_;
  NicParams params_;
  atm::NodeId node_;
  sim::Clock nic_clock_;
  sim::ServiceQueue tx_proc_;  ///< transmit processor occupancy
  sim::ServiceQueue rx_proc_;  ///< receive processor occupancy
  /// Node observability context (nullptr for standalone boards in tests),
  /// resolved once here so both boards emit through the same handle.
  obs::NodeObs* obs_ = nullptr;

 private:
  // Demultiplexing runs once per received frame. Handlers sit in a table
  // indexed by type - kTypeHandlerBase (an empty Handler: none installed),
  // sized to the highest type installed. Both tables only grow at setup
  // (install/bind), so find_handler's returned pointers, which ride in
  // dispatch events, stay stable for the whole simulation.
  std::vector<Handler> handlers_;
  util::U64FlatMap<sim::SimChannel<atm::Frame>*> channels_;
  std::uint32_t seq_ = 1;
};

}  // namespace cni::nic
