#include "core/pathfinder.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/check.hpp"

namespace cni::core {

Pathfinder::PatternId Pathfinder::add_pattern(const Pattern& pattern) {
  CNI_CHECK_MSG(!pattern.comparisons.empty(), "a pattern needs at least one comparison");
  const PatternId id = next_id_++;
  const auto first = static_cast<std::uint32_t>(comparisons_.size());
  const auto count = static_cast<std::uint32_t>(pattern.comparisons.size());
  patterns_.push_back(Installed{id, pattern.target, first, count});
  comparisons_.insert(comparisons_.end(), pattern.comparisons.begin(),
                      pattern.comparisons.end());
  return id;
}

void Pathfinder::remove_pattern(PatternId id) {
  const auto it = std::find_if(patterns_.begin(), patterns_.end(),
                               [id](const Installed& p) { return p.id == id; });
  CNI_CHECK_MSG(it != patterns_.end(), "removing an unknown pattern");
  const auto first = comparisons_.begin() + it->first;
  comparisons_.erase(first, first + it->count);
  // The later patterns' comparisons moved down by the removed count.
  for (auto later = std::next(it); later != patterns_.end(); ++later) {
    later->first -= it->count;
  }
  patterns_.erase(it);
}

void Pathfinder::install_dynamic(const FlowKey& flow, std::uint32_t target) {
  dynamic_.insert(flow.packed(), target);
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

bool Pathfinder::matches(const Pattern& pattern, std::span<const std::byte> header) {
  for (const Comparison& c : pattern.comparisons) {
    if ((read_le64(header, c.offset) & c.mask) != (c.value & c.mask)) return false;
  }
  return true;
}

Pathfinder::Result Pathfinder::classify(std::span<const std::byte> header,
                                        const FlowKey& flow, std::uint64_t fragments) {
  CNI_CHECK(fragments >= 1);
  ++classifications_;
  Result r;

  // A packet whose earlier fragments already classified would resolve in one
  // comparison; our callers classify whole reassembled packets, so the
  // dynamic map only carries the *intra-packet* state modelled below, but we
  // still honour a pre-installed binding (used by tests and by re-sent flows).
  if (const std::uint32_t* target = dynamic_.find(flow.packed())) {
    ++dynamic_hits_;
    r.matched = true;
    r.via_dynamic = true;
    r.target = *target;
    r.comparisons = fragments;  // one comparison per fragment
    dynamic_.erase(flow.packed());
    return r;
  }

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

  // Remaining fragments of this packet match the dynamic pattern the first
  // fragment installed: one comparison each.
  if (r.matched && fragments > 1) {
    dynamic_hits_ += fragments - 1;
    r.comparisons += fragments - 1;
  }
  return r;
}

}  // namespace cni::core
