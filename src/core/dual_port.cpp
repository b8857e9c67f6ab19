#include "core/dual_port.hpp"

#include "util/check.hpp"

namespace cni::core {

DualPortMemory::DualPortMemory(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {
  CNI_CHECK(capacity_bytes > 0);
}

std::optional<std::uint64_t> DualPortMemory::alloc(std::uint64_t bytes) {
  CNI_CHECK(bytes > 0);
  // Compared against what is left, so a huge request cannot wrap the sum.
  if (bytes > capacity_ - used_) return std::nullopt;
  const std::uint64_t offset = used_;
  used_ += bytes;
  return offset;
}

}  // namespace cni::core
