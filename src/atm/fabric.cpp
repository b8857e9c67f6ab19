#include "atm/fabric.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cni::atm {
namespace {

/// The canonical routing order: (head, src, seq). src+seq alone are unique,
/// so this is a total order, and every key component comes from source-local
/// state, so the routing sequence does not depend on when drains run.
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

}  // namespace

Fabric::Fabric(const FabricParams& params, std::uint32_t nodes, sim::Engine& engine)
    : params_(params),
      geometry_(params.cell_mode),
      topology_(make_topology(params)),
      engine_(engine),
      uplinks_(params.switch_ports),
      downlinks_(params.switch_ports),
      hooks_(nodes),
      send_seq_(nodes, 0) {
  CNI_CHECK_MSG(nodes <= params.switch_ports, "more nodes than switch ports");
  // Room for one frame in flight per node from the start, so the heap does
  // not regrow through its smallest sizes early in every run.
  pending_.reserve(nodes);
}

void Fabric::attach(NodeId node, DeliveryHook hook) {
  CNI_CHECK_MSG(node < hooks_.size(), "node outside the cluster");
  CNI_CHECK_MSG(hooks_[node] == nullptr, "node already attached to fabric");
  hooks_[node] = std::move(hook);
}

void Fabric::route_and_schedule(sim::SimTime head, sim::SimDuration burst, Frame frame) {
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
      topology_->route(head, frame.src, dst, burst, traced ? &rt : nullptr);

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

  ++frames_;
  cells_ += geometry_.cells_for(frame.size());

  // The delivery event carries only the hook pointer plus the frame's
  // flattened Parts (FrameTask): it fits InlineFn's inline buffer and shares
  // the pooled payload by refcount instead of copying the Frame into a
  // heap-allocated closure. hooks_ is sized once in the constructor, so the
  // element address is stable across the event's lifetime. The biased
  // delivery sequence makes same-instant ties against node-local events
  // resolve by content, not by the window schedule (DESIGN.md §12).
  FrameTask task([hook = &hooks_[dst]](Frame f) { (*hook)(std::move(f)); },
                 std::move(frame));
  engine_.schedule_delivery(arrival, std::move(task));
}

DeliveryTiming Fabric::send(sim::SimTime ready, Frame frame) {
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
  // and replay it in canonical (head, src, seq) order at a later drain —
  // first come, first served at the switch.
  WireTransfer w;
  w.head = head;
  w.burst = serialization;
  w.seq = ++send_seq_[src];
  w.frame = std::move(frame);
  pending_.push_back(std::move(w));
  std::push_heap(pending_.begin(), pending_.end(), canonical_after);
  return t;
}

sim::SimTime Fabric::drain(sim::SimTime limit) {
  while (!pending_.empty() && pending_.front().head < limit) {
    std::pop_heap(pending_.begin(), pending_.end(), canonical_after);
    WireTransfer& w = pending_.back();
    route_and_schedule(w.head, w.burst, std::move(w.frame));
    pending_.pop_back();
  }
  return pending_.empty() ? sim::kNever : pending_.front().head;
}

}  // namespace cni::atm
