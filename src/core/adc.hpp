// Application Device Channels (paper §2.1).
//
// A device channel is a triplet of transmit, receive and free descriptor
// queues in on-board dual-ported memory, mapped into the application's
// address space when a connection opens. Protection is verified only when a
// buffer is *placed* in a queue — never on the send/receive fast path — and
// queue manipulation is lock-free, relying only on the atomicity of loads
// and stores (single-producer/single-consumer rings), so no gang scheduling
// of network access is ever needed. Only the transmit queue is simulated:
// arriving messages reach the host through the board's handler and channel
// dispatch, so nothing posts to the receive or free queue. Their board
// memory is still charged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/page.hpp"
#include "core/dual_port.hpp"

namespace cni::core {

/// One descriptor: a (virtual address, length) buffer reference plus flags.
struct AdcDescriptor {
  mem::VAddr buffer_va = 0;
  std::uint32_t length = 0;
  std::uint16_t msg_type = 0;
  std::uint16_t flags = 0;
};

/// A single-producer/single-consumer descriptor ring. Head and tail are each
/// written by exactly one side, which is what makes plain (atomic-load/store)
/// manipulation safe on real hardware.
///
/// The modelled ring always has `slots` entries of board memory; the host
/// array behind it holds none until the first push and then doubles from
/// kFirstCapacity up to `slots` as the outstanding count needs.
class DescriptorRing {
 public:
  static constexpr std::uint32_t kFirstCapacity = 8;

  explicit DescriptorRing(std::uint32_t slots);

  [[nodiscard]] bool full() const { return count() == slots_; }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::uint32_t count() const { return head_ - tail_; }
  [[nodiscard]] std::uint32_t slots() const { return slots_; }
  /// Descriptors the host array holds now (0 before the first push).
  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.size());
  }

  /// Producer side. Returns false (ring full) without enqueueing.
  bool push(const AdcDescriptor& d);

  /// Consumer side.
  std::optional<AdcDescriptor> pop();

  /// Bytes of dual-port memory a ring of this size occupies.
  [[nodiscard]] static std::uint64_t footprint_bytes(std::uint32_t slots) {
    return static_cast<std::uint64_t>(slots) * sizeof(AdcDescriptor) + 2 * sizeof(std::uint32_t);
  }

 private:
  /// Doubles the host array (capped at slots_), keeping [tail_, head_) in order.
  void grow();

  std::vector<AdcDescriptor> ring_;  ///< entry k lives at k % ring_.size()
  std::uint32_t slots_;
  std::uint32_t head_ = 0;  // written by producer only
  std::uint32_t tail_ = 0;  // written by consumer only
};

/// One device channel: its transmit queue, with the protection domain it was
/// opened with.
class AdcChannel {
 public:
  /// Opens a channel whose application may only reference buffers inside
  /// [region_base, region_base + region_len). The whole queue triplet is
  /// carved from the board's dual-ported memory; opening fails (returns
  /// nullopt) if the board is out of memory.
  static std::optional<AdcChannel> open(DualPortMemory& board_mem, std::uint32_t channel_id,
                                        mem::VAddr region_base, std::uint64_t region_len,
                                        std::uint32_t slots);

  AdcChannel(AdcChannel&&) = default;
  AdcChannel& operator=(AdcChannel&&) = delete;
  AdcChannel(const AdcChannel&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// The protection check performed when a buffer is placed in a queue.
  [[nodiscard]] bool verify(mem::VAddr buffer, std::uint64_t len) const {
    return buffer >= region_base_ && buffer + len <= region_base_ + region_len_;
  }

  /// Application -> board: queue a transmit descriptor. Fails the protection
  /// check or a full ring by returning false.
  bool enqueue_tx(const AdcDescriptor& d);

  /// Board side: take the next transmit descriptor.
  std::optional<AdcDescriptor> dequeue_tx() { return tx_.pop(); }

  [[nodiscard]] const DescriptorRing& tx_ring() const { return tx_; }

  [[nodiscard]] std::uint64_t protection_rejects() const { return protection_rejects_; }

 private:
  AdcChannel(std::uint32_t id, mem::VAddr region_base, std::uint64_t region_len,
             std::uint32_t slots, std::uint64_t board_offset);

  std::uint32_t id_;
  mem::VAddr region_base_;
  std::uint64_t region_len_;
  std::uint64_t board_offset_;  ///< where the triplet lives in dual-port memory
  DescriptorRing tx_;
  std::uint64_t protection_rejects_ = 0;
};

}  // namespace cni::core
