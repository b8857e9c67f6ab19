// Dual-ported on-board memory allocator.
//
// The OSIRIS board carries 1 MB of dual-ported memory shared by the host
// (mapped queues) and the NIC processors. On the CNI it is partitioned among
// the Message Cache's cached buffers, the Application Device Channel queue
// triplets, and the Application Interrupt Handler code segments — the paper
// notes the 1 MB "may be sufficient" (§3.2). This first-fit allocator keeps
// the budget honest: over-subscribing board memory fails loudly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace cni::core {

class DualPortMemory {
 public:
  explicit DualPortMemory(std::uint64_t capacity_bytes);

  /// First-fit allocation; returns the byte offset of the block, or nullopt
  /// when no hole is large enough.
  std::optional<std::uint64_t> alloc(std::uint64_t bytes);

  /// Frees a block previously returned by alloc (exact offset required).
  void free(std::uint64_t offset);

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return capacity_ - used_; }
  [[nodiscard]] std::size_t allocation_count() const;

 private:
  struct Block {
    std::uint64_t offset;
    std::uint64_t bytes;
    bool allocated;
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  /// The whole capacity in address order, with no two free blocks adjacent
  /// (free() merges a freed block into its free neighbours).
  std::vector<Block> blocks_;
};

}  // namespace cni::core
