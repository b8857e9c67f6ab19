// Banyan switch fabric model.
//
// The paper's switch latencies come from "a 32-port banyan-network based ATM
// switch model": log2(P) stages of 2x2 switching elements, self-routing on
// the destination address bits. We model contention by treating each
// element output as a serially-reusable resource at burst granularity and
// cut-through forwarding with a fixed pipeline latency through the fabric.
#pragma once

#include <cstdint>
#include <vector>

#include "atm/packet.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cni::atm {

class BanyanSwitch {
 public:
  /// `ports` must be a power of two (the paper's switch has 32).
  /// `fabric_latency` is the total pipeline latency through all stages.
  BanyanSwitch(std::uint32_t ports, sim::SimDuration fabric_latency);

  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] std::uint32_t stages() const { return stages_; }
  [[nodiscard]] sim::SimDuration latency() const { return fabric_latency_; }

  /// Routes a burst entering input `src` at time `t`, destined for output
  /// `dst`, that occupies each traversed resource for `burst` time.
  /// Returns when its first bit emerges at the output port. Contention with
  /// earlier bursts sharing any element output delays it.
  sim::SimTime route(sim::SimTime t, NodeId src, NodeId dst, sim::SimDuration burst);

  /// Total time bursts spent queued due to output contention (for stats).
  [[nodiscard]] sim::SimDuration contention_time() const { return contention_; }
  [[nodiscard]] std::uint64_t bursts_routed() const { return bursts_; }

  /// The element output resource used at `stage` on the path src->dst,
  /// exposed for tests (identifies which flows collide).
  [[nodiscard]] std::size_t path_resource(NodeId src, NodeId dst, std::uint32_t stage) const;

 private:
  std::uint32_t ports_;
  std::uint32_t stages_;
  sim::SimDuration fabric_latency_;
  // One ServiceQueue per element output per stage: stages_ * ports_ queues.
  std::vector<sim::ServiceQueue> outputs_;
  sim::SimDuration contention_ = 0;
  std::uint64_t bursts_ = 0;
};

}  // namespace cni::atm
