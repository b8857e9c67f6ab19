// Event taxonomy: the closed set of components and events a trace can carry.
//
// Records store small enum ids, never strings, so the hot-path emit is two
// stores and the ring stays 40 bytes/record; the id -> name tables here are
// only touched at export time. DESIGN.md §11 documents what each event means
// and which argument slots it fills.
#pragma once

#include <cstdint>

namespace cni::obs {

enum class Component : std::uint8_t {
  kMCache = 0,      ///< Message Cache (paper §2.2)
  kAdc = 1,         ///< Application Device Channels (paper §2.1)
  kPathfinder = 2,  ///< PATHFINDER packet classifier
  kDma = 3,         ///< board <-> host DMA engine
  kGovernor = 4,    ///< hybrid poll/interrupt notification
  kDsm = 5,         ///< DSM protocol (faults, fetches)
  kNic = 6,         ///< board substrate (tx/rx processors, AIH)
  kHost = 7,        ///< host CPU (kernel path on the standard NIC)
  kFabric = 8,      ///< ATM fabric (switch stages, links, credits)
};
inline constexpr std::uint32_t kComponentCount = 9;

enum class Event : std::uint8_t {
  // Message Cache. arg0 = source VA, arg1 = span bytes.
  kMCacheLookupHit = 0,
  kMCacheLookupMiss = 1,
  kMCacheInsert = 2,
  kMCacheEvict = 3,  ///< arg0 = evictions this insert, arg1 = span bytes
  kMCacheSnoop = 4,  ///< arg0 = VA, arg1 = len
  // ADC. arg0 = descriptor bytes, arg1 = tx-ring occupancy after enqueue.
  kAdcEnqueueTx = 5,
  kAdcTxWait = 6,  ///< span: descriptor enqueue -> transmit processor pickup
  // PATHFINDER. arg0 = comparisons, arg1 = 0 (no per-flow binding table).
  kPathfinderClassify = 7,
  // DMA. arg0 = bytes, arg1 = 0 read (host->board) / 1 write (board->host).
  kDmaTransfer = 8,
  // Notification. arg0 = inter-arrival gap (ps).
  kGovernorInterrupt = 9,
  kGovernorPoll = 10,
  kGovernorModeSwitch = 11,  ///< arg0 = 1 entering interrupt mode, 0 leaving
  // NIC substrate. arg0 = frame bytes, arg1 = message type.
  kTxFrame = 12,       ///< span: transmit start -> SAR complete
  kRxFrame = 13,       ///< span: arrival -> classified
  kAihDispatch = 14,   ///< arg0 = message type, arg1 = 1 on-NIC / 0 on-host
  // DSM. arg0 = page id, arg1 = 1 write fault / 0 read fault.
  kDsmFault = 15,      ///< span: fault trap -> page data usable
  kDsmPageArrival = 16,  ///< arg0 = page id, arg1 = payload bytes
  // Host kernel path (standard NIC). arg0 = frame bytes.
  kKernelSend = 17,
  kKernelRecv = 18,
  kHostInterrupt = 19,
  // Causal stages (Kind::kCausal). arg0 = this span's token, arg1 = the
  // parent span's token (0 for a chain root). Tokens derive from the frame
  // header's (origin node, seq) plus the stage id — see obs/causal.hpp —
  // so an entire remote round trip reconstructs as one parent-linked tree.
  kCausalFault = 20,     ///< span: fault trap -> page usable (chain root)
  kCausalTx = 21,        ///< span: send accepted -> SAR complete
  kCausalFabWire = 22,   ///< span: switch-stage + link serialization/flight
  kCausalFabHop = 23,    ///< span: switch-port contention wait
  kCausalFabCredit = 24, ///< span: credit-stall wait (Clos backpressure)
  kCausalRx = 25,        ///< span: arrival -> handler/channel dispatch
  kCausalMCache = 26,    ///< span: Message Cache miss penalty on the tx path
  kCausalHandler = 27,   ///< span: AIH / host handler service
  kCausalDeliver = 28,   ///< span: reply serviced -> waiting thread resumed
  kCausalBarrier = 29,   ///< span: barrier arrive -> release
  kCausalColCombine = 30,  ///< span: NIC collective combine -> forward up-tree
  kCausalColDown = 31,     ///< span: NIC collective release fan-out down-tree
};
inline constexpr std::uint32_t kEventCount = 32;

/// What a record means in Chrome trace_event terms.
enum class Kind : std::uint8_t {
  kInstant = 0,  ///< ph "i": a point in simulated time
  kSpan = 1,     ///< ph "X": a complete event with a duration
  kCausal = 3,   ///< ph "X" + parent link: a causal-tree edge (obs/causal.hpp)
};

[[nodiscard]] const char* component_name(Component c);
[[nodiscard]] const char* event_name(Event e);

}  // namespace cni::obs
