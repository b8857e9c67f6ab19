// Application Interrupt Handler memory (paper §2.3).
//
// Protocol code is written in a pointer-safe language, compiled to
// relocatable NIC object code, and swapped whole into a free segment of
// board memory when the application opens its connection — there is
// deliberately *no* virtual memory on the board (a page fault at network
// arrival rates would be ruinous), so the entire handler must fit. The
// PATHFINDER is then programmed to transfer control to the segment when a
// matching packet arrives.
//
// In the simulation a handler's *behaviour* is a C++ callback; this class
// accounts the board-memory residency and the swap-in transfer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/dual_port.hpp"
#include "util/check.hpp"

namespace cni::core {

class AihRegion {
 public:
  struct Segment {
    std::uint64_t board_offset = 0;
    std::uint64_t code_bytes = 0;
  };

  explicit AihRegion(DualPortMemory& board_mem) : mem_(board_mem) {}

  /// Swaps handler object code onto the board. Returns the segment, or
  /// nullopt if board memory is exhausted (the caller decides whether that
  /// is fatal; for the DSM protocol it is).
  std::optional<Segment> install(std::uint32_t handler_id, std::uint64_t code_bytes) {
    CNI_CHECK_MSG(!resident(handler_id), "handler id already has a segment");
    auto offset = mem_.alloc(code_bytes);
    // Exhaustion is a clean refusal: no segment is recorded and the
    // residency accounting is untouched, so the caller diagnoses against
    // consistent numbers.
    if (!offset.has_value()) return std::nullopt;
    const Segment seg{*offset, code_bytes};
    segments_.push_back(Installed{handler_id, seg});
    resident_bytes_ += code_bytes;
    return seg;
  }

  [[nodiscard]] bool resident(std::uint32_t handler_id) const {
    return std::any_of(segments_.begin(), segments_.end(),
                       [handler_id](const Installed& i) { return i.handler_id == handler_id; });
  }

  [[nodiscard]] std::uint64_t resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  /// The board memory backing the segments (for exhaustion diagnostics).
  [[nodiscard]] const DualPortMemory& board_memory() const { return mem_; }

 private:
  struct Installed {
    std::uint32_t handler_id;
    Segment seg;
  };

  DualPortMemory& mem_;
  /// Installs happen at setup, a handful per board, so the segments sit in
  /// one array searched in order.
  std::vector<Installed> segments_;
  std::uint64_t resident_bytes_ = 0;
};

}  // namespace cni::core
