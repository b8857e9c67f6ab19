#include "core/pathfinder.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace cni::core {

void Pathfinder::add_pattern(const Pattern& pattern) {
  CNI_CHECK_MSG(!pattern.comparisons.empty(), "a pattern needs at least one comparison");
  const auto first = static_cast<std::uint32_t>(comparisons_.size());
  const auto count = static_cast<std::uint32_t>(pattern.comparisons.size());
  patterns_.push_back(Installed{pattern.target, first, count});
  comparisons_.insert(comparisons_.end(), pattern.comparisons.begin(),
                      pattern.comparisons.end());
}

std::uint64_t Pathfinder::read_le64(std::span<const std::byte> header, std::uint32_t offset) {
  std::uint8_t buf[8] = {0};
  if (offset < header.size()) {
    const std::size_t n = std::min<std::size_t>(8, header.size() - offset);
    std::memcpy(buf, header.data() + offset, n);
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

Pathfinder::Result Pathfinder::classify(std::span<const std::byte> header,
                                        std::uint64_t fragments) const {
  CNI_CHECK(fragments >= 1);
  Result r;

  // Full classification of the first fragment: patterns examined in priority
  // order; the cost is every comparison evaluated until the match completes.
  for (const Installed& p : patterns_) {
    bool failed = false;
    for (std::uint32_t i = p.first; i < p.first + p.count; ++i) {
      const Comparison& c = comparisons_[i];
      ++r.comparisons;
      if ((read_le64(header, c.offset) & c.mask) != (c.value & c.mask)) {
        failed = true;
        break;
      }
    }
    if (!failed) {
      r.matched = true;
      r.target = p.target;
      break;
    }
  }

  // Remaining fragments of a matched packet: one comparison each.
  if (r.matched) r.comparisons += fragments - 1;
  return r;
}

}  // namespace cni::core
