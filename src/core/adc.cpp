#include "core/adc.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace cni::core {

DescriptorRing::DescriptorRing(std::uint32_t slots) : slots_(slots) {
  CNI_CHECK(slots > 0);
}

void DescriptorRing::grow() {
  const std::uint32_t cap = std::min(std::max(kFirstCapacity, 2 * capacity()), slots_);
  std::vector<AdcDescriptor> grown(cap);
  for (std::uint32_t k = tail_; k != head_; ++k) grown[k % cap] = ring_[k % ring_.size()];
  ring_ = std::move(grown);
}

bool DescriptorRing::push(const AdcDescriptor& d) {
  if (full()) return false;
  if (count() == capacity()) grow();
  ring_[head_ % ring_.size()] = d;
  ++head_;
  return true;
}

std::optional<AdcDescriptor> DescriptorRing::pop() {
  if (empty()) return std::nullopt;
  AdcDescriptor d = ring_[tail_ % ring_.size()];
  ++tail_;
  return d;
}

std::optional<AdcChannel> AdcChannel::open(DualPortMemory& board_mem,
                                           std::uint32_t channel_id,
                                           mem::VAddr region_base, std::uint64_t region_len,
                                           std::uint32_t slots) {
  // The paper's transmit/receive/free triplet occupies board memory whether
  // or not the receive and free queues are used, so all three are charged
  // and every later board-memory offset stays where the triplet puts it.
  const std::uint64_t bytes = 3 * DescriptorRing::footprint_bytes(slots);
  auto offset = board_mem.alloc(bytes);
  if (!offset.has_value()) return std::nullopt;
  return AdcChannel(channel_id, region_base, region_len, slots, *offset);
}

AdcChannel::AdcChannel(std::uint32_t id, mem::VAddr region_base, std::uint64_t region_len,
                       std::uint32_t slots, std::uint64_t board_offset)
    : id_(id),
      region_base_(region_base),
      region_len_(region_len),
      board_offset_(board_offset),
      tx_(slots) {}

bool AdcChannel::enqueue_tx(const AdcDescriptor& d) {
  if (!verify(d.buffer_va, d.length)) {
    ++protection_rejects_;
    return false;
  }
  return tx_.push(d);
}

}  // namespace cni::core
