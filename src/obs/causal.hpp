// Causality tokens: the compact span IDs that link trace records into a
// parent-linked causal tree (DESIGN.md §15).
//
// A token packs (origin node, origin sequence number, stage) into one u64.
// Both components come from state the simulation already maintains — the
// frame header's (src_node, seq) tuple — so tokens are a pure function of
// the deterministic event stream and never depend on when the fabric's
// drains run. Every stage of a frame's journey derives
// its own token from the header it carries; only the *cross-frame* parent
// (the fault that caused a request, the request a reply answers) rides on
// the wire, in atm::Frame::trace.
//
// Bit layout (high to low):
//   bit 63      traced flag — set on every minted token, so a nonzero
//               Frame::trace doubles as "this frame's journey is traced"
//   bits 48-62  origin node (15 bits; the cluster node ceiling is 4096)
//   bits 16-47  origin sequence number (32 bits, per-board monotonic)
//   bits  8-15  reserved (zero)
//   bits  0-7   stage id
#pragma once

#include <cstdint>

#include "obs/taxonomy.hpp"

namespace cni::obs {

/// Stage ids, one per causal event. Distinct from Event so the token layout
/// is frozen independently of taxonomy growth.
enum class Stage : std::uint8_t {
  kFault = 1,
  kTx = 2,
  kFabWire = 3,
  kFabHop = 4,
  kFabCredit = 5,
  kRx = 6,
  kMCache = 7,
  kHandler = 8,
  kDeliver = 9,
  kBarrier = 10,
  kColCombine = 11,  ///< NIC tree collective: child arrivals combined, forwarded up
  kColDown = 12,     ///< NIC tree collective: release forwarded down to children
};

inline constexpr std::uint64_t kCausalTracedBit = 1ull << 63;

/// Mints the token for `stage` of the message `(origin, seq)`.
[[nodiscard]] constexpr std::uint64_t causal_token(std::uint32_t origin,
                                                   std::uint32_t seq, Stage stage) {
  return kCausalTracedBit | (static_cast<std::uint64_t>(origin & 0x7fffu) << 48) |
         (static_cast<std::uint64_t>(seq) << 16) | static_cast<std::uint64_t>(stage);
}

/// The same message's token at a different stage (tokens of one frame's
/// journey differ only in the stage byte).
[[nodiscard]] constexpr std::uint64_t causal_restage(std::uint64_t token, Stage stage) {
  return (token & ~0xffull) | static_cast<std::uint64_t>(stage);
}

[[nodiscard]] constexpr std::uint32_t causal_origin(std::uint64_t token) {
  return static_cast<std::uint32_t>((token >> 48) & 0x7fffu);
}
[[nodiscard]] constexpr std::uint32_t causal_seq(std::uint64_t token) {
  return static_cast<std::uint32_t>(token >> 16);
}
[[nodiscard]] constexpr Stage causal_stage(std::uint64_t token) {
  return static_cast<Stage>(token & 0xffu);
}

/// The causal event a stage is recorded under.
[[nodiscard]] constexpr Event causal_event(Stage stage) {
  switch (stage) {
    case Stage::kFault: return Event::kCausalFault;
    case Stage::kTx: return Event::kCausalTx;
    case Stage::kFabWire: return Event::kCausalFabWire;
    case Stage::kFabHop: return Event::kCausalFabHop;
    case Stage::kFabCredit: return Event::kCausalFabCredit;
    case Stage::kRx: return Event::kCausalRx;
    case Stage::kMCache: return Event::kCausalMCache;
    case Stage::kHandler: return Event::kCausalHandler;
    case Stage::kDeliver: return Event::kCausalDeliver;
    case Stage::kBarrier: return Event::kCausalBarrier;
    case Stage::kColCombine: return Event::kCausalColCombine;
    case Stage::kColDown: return Event::kCausalColDown;
  }
  return Event::kCausalTx;
}

/// The fabric component owns the fabric stages; everything else maps onto
/// the component that executes the stage.
[[nodiscard]] constexpr Component causal_component(Stage stage) {
  switch (stage) {
    case Stage::kFault:
    case Stage::kDeliver:
    case Stage::kBarrier: return Component::kDsm;
    case Stage::kTx: return Component::kAdc;
    case Stage::kFabWire:
    case Stage::kFabHop:
    case Stage::kFabCredit: return Component::kFabric;
    case Stage::kMCache: return Component::kMCache;
    case Stage::kRx:
    case Stage::kHandler:
    case Stage::kColCombine:
    case Stage::kColDown: return Component::kNic;
  }
  return Component::kNic;
}

}  // namespace cni::obs
