// PATHFINDER: a pattern-based packet classifier (Bailey et al., OSDI '94).
//
// The CNI uses this hardware classifier to demultiplex incoming packets to
// the right Application Device Channel or Application Interrupt Handler
// without software dispatch. We model its two published key features:
//
//  * flexible classification programmability — patterns are ordered lists of
//    masked comparisons against the packet's header bytes, installed and
//    removed at run time;
//  * fragment handling — classifying the first fragment of a packet installs
//    a *dynamic pattern* keyed on the flow, so the remaining fragments match
//    in a single comparison instead of re-running the full pattern list.
//
// The cost model (comparisons examined x cycles-per-comparison) is what the
// CNI receive path charges its 33 MHz processor pipeline for classification.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/flat_map.hpp"

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

/// Identifies a flow for dynamic (per-fragment) patterns: the ATM VCI plus
/// the source and per-sender packet sequence number.
struct FlowKey {
  std::uint32_t src = 0;
  std::uint32_t vci = 0;
  std::uint32_t seq = 0;

  bool operator==(const FlowKey&) const = default;

  /// Lossless 64-bit packing used as the dynamic-pattern table key. Node ids
  /// and VCIs are 16-bit quantities on the wire (the ATM VCI field is 16
  /// bits; clusters are far below 65536 nodes), checked here so a widened
  /// field can never silently alias another flow.
  [[nodiscard]] std::uint64_t packed() const {
    CNI_DCHECK(src < (1u << 16));
    CNI_DCHECK(vci < (1u << 16));
    return (static_cast<std::uint64_t>(src) << 48) |
           (static_cast<std::uint64_t>(vci) << 32) | seq;
  }
};

class Pathfinder {
 public:
  using PatternId = std::uint32_t;

  struct Result {
    bool matched = false;
    std::uint32_t target = 0;
    std::uint64_t comparisons = 0;  ///< classifier work performed
    bool via_dynamic = false;       ///< resolved through a dynamic pattern
  };

  /// Installs a pattern; earlier installations have higher priority.
  PatternId add_pattern(const Pattern& pattern);

  /// Removes an installed pattern.
  void remove_pattern(PatternId id);

  /// Pre-installs a dynamic (per-flow) binding, as classification of an
  /// earlier fragment of the flow would. The next classify() of this flow
  /// resolves through it in one comparison per fragment and consumes it.
  void install_dynamic(const FlowKey& flow, std::uint32_t target);

  /// Classifies a packet's header bytes. `fragments` is how many wire
  /// fragments (ATM cells) carried the packet: the first runs the full
  /// pattern list, the rest hit the dynamic pattern at one comparison each.
  Result classify(std::span<const std::byte> header, const FlowKey& flow,
                  std::uint64_t fragments);

  [[nodiscard]] std::size_t pattern_count() const { return patterns_.size(); }
  [[nodiscard]] std::uint64_t classifications() const { return classifications_; }
  [[nodiscard]] std::uint64_t dynamic_hits() const { return dynamic_hits_; }

  /// Evaluates a single pattern against header bytes (exposed for tests).
  static bool matches(const Pattern& pattern, std::span<const std::byte> header);

 private:
  static std::uint64_t read_le64(std::span<const std::byte> header, std::uint32_t offset);

  /// An installed pattern: its comparisons are comparisons_[first, first + count).
  struct Installed {
    PatternId id;
    std::uint32_t target;
    std::uint32_t first;
    std::uint32_t count;
  };
  std::vector<Installed> patterns_;  ///< in priority order
  /// Every installed pattern's comparisons back to back, in priority order,
  /// so a classification walks one contiguous array.
  std::vector<Comparison> comparisons_;
  util::U64FlatMap<std::uint32_t> dynamic_;
  PatternId next_id_ = 1;
  std::uint64_t classifications_ = 0;
  std::uint64_t dynamic_hits_ = 0;
};

}  // namespace cni::core
