// The cluster interconnect: host links + a switching topology.
//
// Every node hangs off one port of the fabric via a 622 Mb/s (STS-12)
// full-duplex link. The fabric computes frame delivery timing — uplink
// serialization (with the per-cell header tax), propagation, topology
// traversal with contention (single-stage banyan by default; Clos and torus
// via FabricParams::topology), downlink occupancy — and schedules the
// delivery callback at the receiving NIC. The uplink is charged at send
// time; the switch and downlink legs are replayed later, in head-arrival
// order, by the run loop's drains (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "atm/cell.hpp"
#include "atm/packet.hpp"
#include "atm/topology.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cni::atm {

/// Source-side timing of one frame, returned to the sending NIC. The arrival
/// time is unknown at send time — the switch is traversed at the next drain —
/// and senders consume only these fields, which is what makes buffering the
/// traversal legal at all.
struct DeliveryTiming {
  sim::SimTime first_bit_out = 0;  ///< when serialization onto the uplink began
  std::uint64_t cells = 0;
  std::uint64_t wire_bytes = 0;
};

/// One buffered send, parked between its uplink serialization (computed at
/// send time, from source-local state only) and its switch traversal
/// (performed by a later drain). The canonical routing order is
/// (head, src, seq): a total order in which every component is derived from
/// the source node alone, so it cannot depend on when a drain runs.
struct WireTransfer {
  sim::SimTime head = 0;       ///< first bit reaches the switch input
  sim::SimDuration burst = 0;  ///< uplink serialization time (resource hold)
  std::uint64_t seq = 0;       ///< per-source-node send sequence
  Frame frame;
};

class Fabric {
 public:
  /// Invoked (at the frame's arrival instant) to hand the frame to node
  /// `frame.dst`'s NIC.
  // cni-lint: allow(hot-path-alloc): the hook is installed once per node at
  // cluster setup; per-event delivery captures only its address (FrameTask).
  using DeliveryHook = std::function<void(Frame)>;

  /// Nodes 0..nodes-1 schedule their deliveries on `engine`, which must
  /// outlive the fabric.
  Fabric(const FabricParams& params, std::uint32_t nodes, sim::Engine& engine);

  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] const CellGeometry& cells() const { return geometry_; }

  /// Registers the receive hook for a node (its NIC's reassembly input).
  void attach(NodeId node, DeliveryHook hook);

  /// Sends `frame`, whose serialization onto the uplink may start at `ready`:
  /// occupies the uplink (source-local state) and buffers a WireTransfer in
  /// the pending heap. The switch and downlink legs run at a later drain.
  DeliveryTiming send(sim::SimTime ready, Frame frame);

  // ---- Run-loop margins (sim::EpochParams, DESIGN.md §12) ----

  /// Minimum cross-node latency: a send event at t cannot affect another
  /// node before t + min_lookahead(). The traversal floor comes from the
  /// topology (banyan: the switch pipeline; Clos: one leaf block; torus: one
  /// hop), plus the two propagation legs every path pays (uplink wire before
  /// the fabric, downlink wire after).
  [[nodiscard]] sim::SimDuration min_lookahead() const {
    return topology_->min_cross_latency() + 2 * params_.propagation;
  }
  /// A buffered head at H is final once every event at or before
  /// H - drain_horizon has run: a later send starts its uplink no earlier
  /// than its event and adds one propagation leg, so its head comes after H.
  [[nodiscard]] sim::SimDuration drain_horizon() const { return params_.propagation; }
  /// A buffered head at H cannot deliver before H + pending_bound().
  [[nodiscard]] sim::SimDuration pending_bound() const {
    return topology_->min_cross_latency() + params_.propagation;
  }

  /// Pops and routes every buffered transfer with head < limit through the
  /// topology and downlink, in canonical (head, src, seq) order, scheduling
  /// each delivery on the engine. Returns the earliest still-buffered head,
  /// or sim::kNever.
  sim::SimTime drain(sim::SimTime limit);

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_; }
  [[nodiscard]] std::uint64_t cells_sent() const { return cells_; }
  [[nodiscard]] const Topology& topology() const { return *topology_; }

 private:
  /// The switch-to-NIC leg: topology traversal, downlink occupancy,
  /// delivery event.
  void route_and_schedule(sim::SimTime head, sim::SimDuration burst, Frame frame);

  FabricParams params_;
  CellGeometry geometry_;
  std::unique_ptr<Topology> topology_;
  sim::Engine& engine_;
  std::vector<sim::ServiceQueue> uplinks_;
  std::vector<sim::ServiceQueue> downlinks_;
  std::vector<DeliveryHook> hooks_;
  std::vector<std::uint64_t> send_seq_;  // per source node
  // Every sent transfer not yet routed: a heap whose top is the canonically
  // first, filled by send() and popped by drain().
  std::vector<WireTransfer> pending_;
  std::uint64_t frames_ = 0;
  std::uint64_t cells_ = 0;
};

}  // namespace cni::atm
