// The cluster interconnect: host links + a switching topology.
//
// Every node hangs off one port of the fabric via a 622 Mb/s (STS-12)
// full-duplex link. The fabric computes frame delivery timing — uplink
// serialization (with the per-cell header tax), propagation, topology
// traversal with contention (single-stage banyan by default; Clos and torus
// via FabricParams::topology), downlink occupancy — and schedules the
// delivery callback at the receiving NIC. The uplink is charged at send
// time; the switch and downlink legs are replayed later, in head-arrival
// order, by the epoch scheduler's drains (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "atm/cell.hpp"
#include "atm/packet.hpp"
#include "atm/topology.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"
#include "util/thread_annotations.hpp"

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
/// (performed at the epoch barrier — or, for intra-shard transfers under an
/// aligned plan, by the owning shard's local drain). The canonical routing
/// order is (head, src, seq) — a total order in which every component is
/// derived from the source node alone, so it cannot depend on the shard
/// count, the epoch schedule, or which worker ran first.
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

  /// Node i (i < plan.nodes) runs on engines[plan.shard_of(i)]: its
  /// deliveries are scheduled there and its sends buffer per that shard.
  /// Every barrier-requiring send is recorded in `ledger`, which ends fused
  /// epochs (sim::FusionLedger). `engines` and `ledger` must outlive the
  /// fabric.
  Fabric(const FabricParams& params, const sim::ShardPlan& plan,
         std::span<sim::Engine* const> engines, sim::FusionLedger& ledger);

  // ---- Protocol roles (Clang thread-safety capabilities, DESIGN.md §13) --
  //
  // The fabric has no locks; its safety argument is ownership:
  // send-side state belongs to the sending node's shard during an epoch, the
  // pending heap belongs to the coordinator at barriers. The two roles
  // are public so the epoch machinery (cluster.cpp's drain hooks) can assert
  // the role its protocol position confers.

  /// Owning-shard role: held (by protocol) while executing a shard's events
  /// — sends, local drains. The barrier also confers it on the coordinator,
  /// since every shard is parked there.
  util::Capability lane_role;
  /// Coordinator role: held between epochs and at barriers, when exactly one
  /// thread runs. Guards the pending heap.
  util::Capability barrier_role;

  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] const CellGeometry& cells() const { return geometry_; }
  [[nodiscard]] std::uint32_t node_limit() const { return params_.switch_ports; }

  /// Registers the receive hook for a node (its NIC's reassembly input).
  void attach(NodeId node, DeliveryHook hook);

  /// Sends `frame`, whose serialization onto the uplink may start at `ready`:
  /// occupies the uplink (source-local state) and buffers a WireTransfer —
  /// into the shard's private local queue when source and destination share
  /// a shard and the topology granted concurrent local routing for the plan,
  /// into the shard's outbox (recording the send in the fusion ledger)
  /// otherwise. The switch and downlink legs run at the next drain.
  DeliveryTiming send(sim::SimTime ready, Frame frame);

  // ---- Epoch scheduling (see sim/sharded.hpp, DESIGN.md §12) ----

  /// Minimum cross-node latency the epoch scheduler may exploit: a send
  /// event at t cannot affect another node before t + min_lookahead(). The
  /// traversal floor comes from the topology (banyan: the switch pipeline;
  /// Clos: one leaf block; torus: one hop), plus the two propagation legs
  /// every path pays (uplink wire before the fabric, downlink wire after).
  [[nodiscard]] sim::SimDuration min_lookahead() const {
    return topology_->min_cross_latency() + 2 * params_.propagation;
  }
  /// A buffered head at H is final once every shard passed H - drain_horizon
  /// (the uplink adds at least one propagation leg before the fabric).
  [[nodiscard]] sim::SimDuration drain_horizon() const { return params_.propagation; }
  /// A buffered head at H cannot deliver before H + pending_bound().
  [[nodiscard]] sim::SimDuration pending_bound() const {
    return topology_->min_cross_latency() + params_.propagation;
  }

  /// Per-shard-pair lookahead for `plan` (sim::next_epoch_end's matrix):
  /// the topology's minimum zero-load traversal between each pair of blocks
  /// plus the two propagation legs. The single-stage banyan yields uniform
  /// rows equal to min_lookahead(); Clos and torus yield genuinely
  /// distance-dependent rows — torus neighbor slabs sit one hop apart while
  /// far slabs earn many hops of extra slack — and the epoch scheduler
  /// exploits them with no further changes.
  [[nodiscard]] sim::LookaheadMatrix lookahead_matrix(const sim::ShardPlan& plan) const;

  /// Epoch-barrier drain. Single-threaded (barriers order it against all
  /// shard execution): pushes every outbox *and* every shard-local queue
  /// into the pending heap, then pops and routes each transfer with
  /// head < limit through the topology + downlink in canonical
  /// (head, src, seq) order, scheduling delivery on the destination shard's
  /// engine. Returns the earliest still-buffered head, or sim::kNever.
  sim::SimTime drain(sim::SimTime limit);

  /// Fused-epoch fast path: routes `shard`'s own intra-block transfers with
  /// head < limit, in canonical order, and returns the earliest remaining
  /// local head. Callable concurrently for *different* shards: transfers
  /// only enter local queues when Topology::concurrent_local_routing(plan)
  /// held — intra-block paths of different blocks traverse disjoint
  /// contention resources — and the destination downlink/engine belong to
  /// the owning shard.
  sim::SimTime local_drain(std::uint32_t shard, sim::SimTime limit);

  /// Earliest unrouted transfer in `shard`'s local queue (kNever when none).
  /// Owner-shard only, like local_drain.
  [[nodiscard]] sim::SimTime local_pending_min(std::uint32_t shard) const;

  [[nodiscard]] std::uint64_t frames_sent() const;
  [[nodiscard]] std::uint64_t cells_sent() const;
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  /// The banyan when the fabric is single-stage; check-fails otherwise.
  [[nodiscard]] const BanyanSwitch& fabric_switch() const;

 private:
  /// Per-shard frame/cell tallies and local transfer queue, cache-line
  /// padded: lane s is touched by shard s during epochs (pushes, local
  /// drains) and by the coordinator only at barriers.
  struct alignas(64) Lane {
    std::uint64_t frames = 0;
    std::uint64_t cells = 0;
    // Local (intra-block) transfers: a heap whose top is the canonically
    // first, so local_pending_min reads it and local_drain pops from it.
    std::vector<WireTransfer> local;
  };

  /// The switch-to-NIC leg: topology traversal, downlink occupancy,
  /// delivery event. `lane` charges the statistics tallies; the
  /// coordinator's barrier drains use lane 0, shard s's local drains lane s
  /// (sound: barrier drains never run concurrently with anything, and local
  /// drains of different shards touch disjoint resources).
  void route_and_schedule(sim::SimTime head, sim::SimDuration burst, Frame frame,
                          std::uint32_t lane) CNI_REQUIRES(lane_role);

  /// Pops `heap` (a canonical-order heap) and routes every transfer with
  /// head < limit, charging `lane`; returns the new top's head, or
  /// sim::kNever when the heap is empty.
  sim::SimTime route_below(std::vector<WireTransfer>& heap, sim::SimTime limit,
                           std::uint32_t lane) CNI_REQUIRES(lane_role);

  FabricParams params_;
  CellGeometry geometry_;
  std::unique_ptr<Topology> topology_;
  std::vector<sim::ServiceQueue> uplinks_;
  std::vector<sim::ServiceQueue> downlinks_;
  std::vector<DeliveryHook> hooks_;
  // Each outbox/lane is touched only by its own shard's worker during an
  // epoch and consumed only at barriers (except the lane's local queue,
  // drained by its own shard); the epoch machinery's release/acquire edges
  // are the happens-before between the two sides.
  /// Topology granted concurrent_local_routing(plan): local fast path on.
  bool local_ok_;
  sim::FusionLedger& ledger_;
  std::vector<sim::Engine*> engine_of_node_;
  std::vector<std::uint32_t> shard_of_node_;
  // per source node
  std::vector<std::uint64_t> send_seq_ CNI_GUARDED_BY(lane_role);
  // per source shard
  std::vector<std::vector<WireTransfer>> outboxes_ CNI_GUARDED_BY(lane_role);
  // Per shard. Unguarded on purpose: element s is per-shard state like
  // outboxes_, but frames_sent()/cells_sent() read all lanes role-free at
  // quiescence (per-element guarding is beyond the annotation language —
  // route_below/local_drain's REQUIRES carry it).
  std::vector<Lane> lanes_;
  // Every transfer a barrier drain has collected but not yet routed: a heap
  // in canonical order, like Lane::local.
  std::vector<WireTransfer> pending_ CNI_GUARDED_BY(barrier_role);
};

}  // namespace cni::atm
