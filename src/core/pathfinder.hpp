// PATHFINDER: a pattern-based packet classifier (Bailey et al., OSDI '94).
//
// The CNI uses this hardware classifier to demultiplex incoming packets to
// the right Application Device Channel or Application Interrupt Handler
// without software dispatch. We model its two published key features:
//
//  * flexible classification programmability — patterns are ordered lists of
//    masked comparisons against the packet's header bytes, installed when a
//    handler or channel is bound;
//  * fragment handling — the first fragment of a packet runs the full pattern
//    list, and each remaining fragment matches in a single comparison. That
//    per-fragment match is charged as `fragments − 1` comparisons; no table
//    of per-flow bindings is simulated, because every classification sees a
//    whole reassembled packet.
//
// The cost model (comparisons examined x cycles-per-comparison) is what the
// CNI receive path charges its 33 MHz processor pipeline for classification.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cni::core {

/// One masked comparison: up to 8 header bytes at `offset` (little-endian,
/// zero-padded past the end of the header) must equal `value` under `mask`.
struct Comparison {
  std::uint32_t offset = 0;
  std::uint64_t mask = ~0ULL;
  std::uint64_t value = 0;
};

struct Pattern {
  std::vector<Comparison> comparisons;
  std::uint32_t target = 0;  ///< demux target (handler / channel id)
};

class Pathfinder {
 public:
  struct Result {
    bool matched = false;
    std::uint32_t target = 0;
    std::uint64_t comparisons = 0;  ///< classifier work performed
  };

  /// Installs a pattern; earlier installations have higher priority.
  void add_pattern(const Pattern& pattern);

  /// Classifies a packet's header bytes. `fragments` is how many wire
  /// fragments (ATM cells) carried the packet: the first runs the full
  /// pattern list, and a matched packet's other fragments cost one
  /// comparison each.
  Result classify(std::span<const std::byte> header, std::uint64_t fragments) const;

  [[nodiscard]] std::size_t pattern_count() const { return patterns_.size(); }

 private:
  static std::uint64_t read_le64(std::span<const std::byte> header, std::uint32_t offset);

  /// An installed pattern: its comparisons are comparisons_[first, first + count).
  struct Installed {
    std::uint32_t target;
    std::uint32_t first;
    std::uint32_t count;
  };
  std::vector<Installed> patterns_;  ///< in priority order
  /// Every installed pattern's comparisons back to back, in priority order,
  /// so a classification walks one contiguous array.
  std::vector<Comparison> comparisons_;
};

}  // namespace cni::core
