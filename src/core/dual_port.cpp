#include "core/dual_port.hpp"

#include <algorithm>
#include <iterator>

#include "util/check.hpp"

namespace cni::core {

DualPortMemory::DualPortMemory(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {
  CNI_CHECK(capacity_bytes > 0);
  blocks_.push_back(Block{0, capacity_bytes, false});
}

std::optional<std::uint64_t> DualPortMemory::alloc(std::uint64_t bytes) {
  CNI_CHECK(bytes > 0);
  const auto it = std::find_if(blocks_.begin(), blocks_.end(), [bytes](const Block& b) {
    return !b.allocated && b.bytes >= bytes;
  });
  if (it == blocks_.end()) return std::nullopt;
  const Block hole = *it;
  *it = Block{hole.offset, bytes, true};
  // Split: the tail remains free. Its right neighbour is allocated (no two
  // free blocks are adjacent), so nothing needs merging.
  if (hole.bytes > bytes) {
    blocks_.insert(std::next(it), Block{hole.offset + bytes, hole.bytes - bytes, false});
  }
  used_ += bytes;
  return hole.offset;
}

void DualPortMemory::free(std::uint64_t offset) {
  auto it = std::find_if(blocks_.begin(), blocks_.end(), [offset](const Block& b) {
    return b.offset == offset && b.allocated;
  });
  CNI_CHECK_MSG(it != blocks_.end(), "freeing an offset that is not allocated");
  it->allocated = false;
  used_ -= it->bytes;
  // Coalesce with the free neighbours on either side.
  if (const auto next = std::next(it); next != blocks_.end() && !next->allocated) {
    it->bytes += next->bytes;
    blocks_.erase(next);
  }
  if (it != blocks_.begin()) {
    if (const auto prev = std::prev(it); !prev->allocated) {
      prev->bytes += it->bytes;
      blocks_.erase(it);
    }
  }
}

std::size_t DualPortMemory::allocation_count() const {
  return static_cast<std::size_t>(std::count_if(
      blocks_.begin(), blocks_.end(), [](const Block& b) { return b.allocated; }));
}

}  // namespace cni::core
