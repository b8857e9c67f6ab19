#include "atm/banyan.hpp"

#include "util/check.hpp"
#include "util/units.hpp"

namespace cni::atm {

BanyanSwitch::BanyanSwitch(std::uint32_t ports, sim::SimDuration fabric_latency)
    : ports_(ports), fabric_latency_(fabric_latency) {
  CNI_CHECK_MSG(util::is_pow2(ports), "banyan port count must be a power of two");
  stages_ = 0;
  for (std::uint32_t p = ports; p > 1; p >>= 1) ++stages_;
  outputs_.resize(static_cast<std::size_t>(stages_) * ports_);
}

std::size_t BanyanSwitch::path_resource(NodeId src, NodeId dst, std::uint32_t stage) const {
  CNI_CHECK(stage < stages_);
  // In a butterfly/banyan, after stage s the route has fixed the top (s+1)
  // destination bits; the remaining low bits still carry the source's
  // position. The wire the burst occupies after stage s is therefore
  // identified by taking dst's high bits and src's low bits.
  const std::uint32_t fixed = stage + 1;
  const std::uint32_t high_mask = ((1u << fixed) - 1u) << (stages_ - fixed);
  const std::uint32_t low_mask = (stages_ - fixed == 0)
                                     ? 0u
                                     : ((1u << (stages_ - fixed)) - 1u);
  const std::uint32_t wire = (dst & high_mask) | (src & low_mask);
  return static_cast<std::size_t>(stage) * ports_ + wire;
}

sim::SimTime BanyanSwitch::route(sim::SimTime t, NodeId src, NodeId dst,
                                 sim::SimDuration burst) {
  CNI_CHECK(src < ports_ && dst < ports_);
  ++bursts_;
  const sim::SimDuration per_stage = fabric_latency_ / stages_;
  sim::SimTime head = t;  // when the burst's first bit reaches the next stage
  for (std::uint32_t s = 0; s < stages_; ++s) {
    sim::ServiceQueue& out = outputs_[path_resource(src, dst, s)];
    const sim::SimTime done = out.occupy(head, burst);
    const sim::SimTime started = done - burst;  // after any queueing delay
    contention_ += started - head;
    head = started + per_stage;  // cut-through: pipeline latency per stage
  }
  return head;
}

}  // namespace cni::atm
