#include "atm/fabric.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cni::atm {
namespace {

/// The canonical routing order: (head, src, seq). src+seq alone are unique,
/// so this is a total order, and every key component comes from source-local
/// state — the routing sequence is independent of the shard count, the epoch
/// schedule and worker timing.
bool canonical_less(const WireTransfer& a, const WireTransfer& b) {
  if (a.head != b.head) return a.head < b.head;
  if (a.frame.src != b.frame.src) return a.frame.src < b.frame.src;
  return a.seq < b.seq;
}

/// Heap comparator: std::push_heap/pop_heap keep the greatest element on
/// top, so reversing canonical_less makes the canonically first transfer
/// the top. The order is total, so pops follow it exactly, whatever the
/// push order.
bool canonical_after(const WireTransfer& a, const WireTransfer& b) {
  return canonical_less(b, a);
}

void push_canonical(std::vector<WireTransfer>& heap, WireTransfer&& w) {
  heap.push_back(std::move(w));
  std::push_heap(heap.begin(), heap.end(), canonical_after);
}

}  // namespace

Fabric::Fabric(const FabricParams& params, const sim::ShardPlan& plan,
               std::span<sim::Engine* const> engines, sim::FusionLedger& ledger)
    : params_(params),
      geometry_(params.cell_mode),
      topology_(make_topology(params)),
      uplinks_(params.switch_ports),
      downlinks_(params.switch_ports),
      hooks_(plan.nodes),
      local_ok_(topology_->concurrent_local_routing(plan)),
      ledger_(ledger),
      engine_of_node_(plan.nodes),
      shard_of_node_(plan.nodes),
      send_seq_(plan.nodes, 0),
      outboxes_(plan.shards),
      lanes_(plan.shards) {
  CNI_CHECK_MSG(plan.nodes <= params.switch_ports, "more nodes than switch ports");
  CNI_CHECK(engines.size() == plan.shards);
  for (std::uint32_t i = 0; i < plan.nodes; ++i) {
    shard_of_node_[i] = plan.shard_of(i);
    engine_of_node_[i] = engines[shard_of_node_[i]];
  }
  topology_->set_lanes(plan.shards);
}

const BanyanSwitch& Fabric::fabric_switch() const {
  const BanyanSwitch* sw = topology_->single_stage();
  CNI_CHECK_MSG(sw != nullptr, "fabric_switch() on a non-banyan topology");
  return *sw;
}

void Fabric::attach(NodeId node, DeliveryHook hook) {
  CNI_CHECK_MSG(node < hooks_.size(), "node outside the shard plan");
  CNI_CHECK_MSG(hooks_[node] == nullptr, "node already attached to fabric");
  hooks_[node] = std::move(hook);
}

std::uint64_t Fabric::frames_sent() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.frames;
  return total;
}

std::uint64_t Fabric::cells_sent() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.cells;
  return total;
}

sim::LookaheadMatrix Fabric::lookahead_matrix(const sim::ShardPlan& plan) const {
  sim::LookaheadMatrix m;
  m.shards = plan.shards;
  m.entries.assign(static_cast<std::size_t>(plan.shards) * plan.shards, 0);
  // The topology supplies the zero-load traversal floor between each pair of
  // blocks; every path additionally pays the uplink propagation leg before
  // the fabric and the downlink one after, so both legs join the bound.
  topology_->fill_block_latency(plan, m);
  for (std::uint32_t r = 0; r < plan.shards; ++r) {
    for (std::uint32_t c = 0; c < plan.shards; ++c) {
      sim::SimDuration& e = m.entries[static_cast<std::size_t>(r) * plan.shards + c];
      e = r == c ? sim::LookaheadMatrix::kUnbounded : e + 2 * params_.propagation;
    }
  }
  return m;
}

void Fabric::route_and_schedule(sim::SimTime head, sim::SimDuration burst, Frame frame,
                                std::uint32_t lane) {
  const NodeId dst = frame.dst;
  // Cut-through: the burst's head crosses the fabric stage by stage (or hop
  // by hop), delayed by contention with earlier bursts sharing a resource.
  // A traced frame (nonzero causal token) additionally collects the per-
  // category attribution of its route — reads of the same state the route
  // already advances, so traced and untraced runs time identically.
  RouteTrace rt;
  const bool traced = frame.trace != 0;
  if (traced) {
    // send() pre-filled the uplink leg into frame.fab; resume from it so the
    // final breakdown covers the full sar-done -> arrival interval.
    const FabBreakdown pre = FabBreakdown::unpack(frame.fab);
    rt.wire = pre.wire_ns * sim::kNanosecond;
    rt.contend = pre.contend_ns * sim::kNanosecond;
    rt.credit = pre.credit_ns * sim::kNanosecond;
    rt.hops = pre.hops;
  }
  const sim::SimTime head_out =
      topology_->route(head, frame.src, dst, burst, lane, traced ? &rt : nullptr);

  // Downlink occupancy + propagation to the destination NIC. The last bit
  // arrives when the burst finishes serializing down the link.
  const sim::SimTime down_done = downlinks_[dst].occupy(head_out, burst);
  const sim::SimTime arrival = down_done + params_.propagation;
  if (traced) {
    // Downlink waits count as contention; serialization + flight as wire.
    // The breakdown travels inside the frame and becomes causal records on
    // the destination node at delivery, where event order is deterministic.
    rt.contend += (down_done - burst) - head_out;
    rt.wire += burst + params_.propagation;
    ++rt.hops;
    FabBreakdown b;
    b.wire_ns = static_cast<std::uint32_t>(rt.wire / sim::kNanosecond);
    b.contend_ns = static_cast<std::uint32_t>(rt.contend / sim::kNanosecond);
    b.credit_ns = static_cast<std::uint32_t>(rt.credit / sim::kNanosecond);
    b.hops = rt.hops;
    frame.fab = b.pack();
  }

  Lane& tally = lanes_[lane];
  ++tally.frames;
  tally.cells += geometry_.cells_for(frame.size());

  // The delivery event carries only the hook pointer plus the frame's
  // flattened Parts (FrameTask): it fits InlineFn's inline buffer and shares
  // the pooled payload by refcount instead of copying the Frame into a
  // heap-allocated closure. hooks_ is sized once in the constructor, so the
  // element address is stable across the event's lifetime. The biased
  // delivery sequence makes same-instant ties against node-local events
  // resolve by content, not by epoch schedule (DESIGN.md §12).
  FrameTask task([hook = &hooks_[dst]](Frame f) { (*hook)(std::move(f)); },
                 std::move(frame));
  engine_of_node_[dst]->schedule_delivery(arrival, std::move(task));
}

DeliveryTiming Fabric::send(sim::SimTime ready, Frame frame) {
  // Held by protocol: a send executes on the sending node's owning shard
  // (its events live on that shard's engine).
  lane_role.assert_held();
  const NodeId src = frame.src;
  const NodeId dst = frame.dst;
  CNI_CHECK(src < hooks_.size() && dst < hooks_.size());
  CNI_CHECK_MSG(hooks_[dst] != nullptr, "destination node not attached");

  DeliveryTiming t;
  t.cells = geometry_.cells_for(frame.size());
  t.wire_bytes = geometry_.wire_bytes(frame.size());
  const sim::SimDuration serialization =
      sim::transmission_time(t.wire_bytes * 8, params_.link_bits_per_sec);

  // Uplink: the frame's cells serialize back-to-back once the link frees up
  // (ServiceQueue::occupy starts the job when the link drains). The uplink
  // is source-local state, so this side runs at send time.
  const sim::SimTime up_done = uplinks_[src].occupy(ready, serialization);
  const sim::SimTime up_start = up_done - serialization;
  t.first_bit_out = up_start;
  const sim::SimTime head = up_start + params_.propagation;

  if (frame.trace != 0) {
    // Traced frame: stash the uplink leg (wait is contention, flight to the
    // switch is wire) in the packed breakdown; route_and_schedule resumes
    // from it when the deferred traversal replays.
    FabBreakdown b;
    b.wire_ns = static_cast<std::uint32_t>(params_.propagation / sim::kNanosecond);
    b.contend_ns = static_cast<std::uint32_t>((up_start - ready) / sim::kNanosecond);
    b.hops = 1;
    frame.fab = b.pack();
  }

  // The switch and downlink are cross-node resources: defer the traversal
  // and replay it in canonical (head, src, seq) order later — first come,
  // first served at the switch. Intra-shard transfers park in the shard's
  // private local queue when the topology granted concurrent local routing
  // (the shard routes them itself mid-epoch: their paths are disjoint from
  // every other shard's); everything else goes to the outbox for the next
  // barrier drain and is recorded in the fusion ledger, whose stop rule ends
  // a fused epoch before the delivery could be missed.
  const std::uint32_t ss = shard_of_node_[src];
  WireTransfer w;
  w.head = head;
  w.burst = serialization;
  w.seq = ++send_seq_[src];
  w.frame = std::move(frame);
  if (local_ok_ && shard_of_node_[dst] == ss) {
    push_canonical(lanes_[ss].local, std::move(w));
  } else {
    ledger_.note_send(up_start);
    outboxes_[ss].push_back(std::move(w));
  }
  return t;
}

sim::SimTime Fabric::route_below(std::vector<WireTransfer>& heap, sim::SimTime limit,
                                 std::uint32_t lane) {
  while (!heap.empty() && heap.front().head < limit) {
    std::pop_heap(heap.begin(), heap.end(), canonical_after);
    WireTransfer& w = heap.back();
    route_and_schedule(w.head, w.burst, std::move(w.frame), lane);
    heap.pop_back();
  }
  return heap.empty() ? sim::kNever : heap.front().head;
}

sim::SimTime Fabric::local_pending_min(std::uint32_t shard) const {
  // Held by protocol: only `shard`'s own thread asks for its local minimum.
  lane_role.assert_shared();
  const std::vector<WireTransfer>& local = lanes_[shard].local;
  return local.empty() ? sim::kNever : local.front().head;
}

sim::SimTime Fabric::local_drain(std::uint32_t shard, sim::SimTime limit) {
  // Held by protocol: the fused loop invokes this hook only on the owning
  // shard's thread, for that shard's lane.
  lane_role.assert_held();
  return route_below(lanes_[shard].local, limit, shard);
}

sim::SimTime Fabric::drain(sim::SimTime limit) {
  // Held by protocol: drains run between epochs, when every worker is
  // parked at the barrier — which is also what confers every shard's lane
  // on the coordinator.
  barrier_role.assert_held();
  lane_role.assert_held();
  for (std::vector<WireTransfer>& box : outboxes_) {
    for (WireTransfer& w : box) push_canonical(pending_, std::move(w));
    box.clear();
  }
  for (Lane& l : lanes_) {
    for (WireTransfer& w : l.local) push_canonical(pending_, std::move(w));
    l.local.clear();
  }
  return route_below(pending_, limit, 0);
}

}  // namespace cni::atm
