// Dual-ported on-board memory allocator.
//
// The OSIRIS board carries 1 MB of dual-ported memory shared by the host
// (mapped queues) and the NIC processors. On the CNI it is partitioned among
// the Message Cache's cached buffers, the Application Device Channel queue
// triplets, and the Application Interrupt Handler code segments — the paper
// notes the 1 MB "may be sufficient" (§3.2). The allocator is a bump; board
// memory is partitioned at setup and never returned. It keeps the budget
// honest: over-subscribing board memory fails loudly.
#pragma once

#include <cstdint>
#include <optional>

namespace cni::core {

class DualPortMemory {
 public:
  explicit DualPortMemory(std::uint64_t capacity_bytes);

  /// Takes the next `bytes` of board memory; returns the block's byte offset,
  /// or nullopt when fewer than `bytes` remain.
  std::optional<std::uint64_t> alloc(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return capacity_ - used_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
};

}  // namespace cni::core
