// DSM protocol message types.
//
// All of these live in the handler range: on the CNI the PATHFINDER routes
// them to the DSM's Application Interrupt Handlers on the board; on the
// standard NIC they interrupt the host. MsgHeader::aux carries the lock id
// (lock traffic) or the request id (fetch traffic).
#pragma once

#include "cluster/params.hpp"
#include "nic/wire.hpp"

namespace cni::dsm {

/// Headroom every protocol ByteWriter reserves at the payload front so the
/// fixed MsgHeader can be patched in place — body bytes serialize exactly
/// once, straight into the frame's pooled buffer.
inline constexpr std::size_t kMsgHeadroom = sizeof(nic::MsgHeader);

inline constexpr nic::MsgType kDsmLockReq = nic::kTypeHandlerBase + 0;
inline constexpr nic::MsgType kDsmLockFwd = nic::kTypeHandlerBase + 1;    ///< home -> last releaser
inline constexpr nic::MsgType kDsmLockGrant = nic::kTypeHandlerBase + 2;  ///< releaser -> acquirer (+ intervals)
inline constexpr nic::MsgType kDsmLockRel = nic::kTypeHandlerBase + 3;
inline constexpr nic::MsgType kDsmBarArrive = nic::kTypeHandlerBase + 4;  ///< node -> manager (+ new intervals)
inline constexpr nic::MsgType kDsmBarRelease = nic::kTypeHandlerBase + 5; ///< manager -> node (+ unseen intervals)
inline constexpr nic::MsgType kDsmPageReq = nic::kTypeHandlerBase + 6;
inline constexpr nic::MsgType kDsmPageReply = nic::kTypeHandlerBase + 7;  ///< full page (cacheable)
inline constexpr nic::MsgType kDsmDiffReq = nic::kTypeHandlerBase + 8;
inline constexpr nic::MsgType kDsmDiffReply = nic::kTypeHandlerBase + 9;  ///< retained + fresh diffs
// NIC-tree collectives (DESIGN.md §16): combined on the board per the
// DsmSystem's CollectiveTree, no host involvement at interior nodes.
inline constexpr nic::MsgType kDsmColUp = nic::kTypeHandlerBase + 10;    ///< barrier up-sweep (+ subtree intervals)
inline constexpr nic::MsgType kDsmColDown = nic::kTypeHandlerBase + 11;  ///< barrier down-sweep (+ unseen intervals)
inline constexpr nic::MsgType kDsmRedUp = nic::kTypeHandlerBase + 12;    ///< reduce up-sweep (op + u64 payload)
inline constexpr nic::MsgType kDsmRedDown = nic::kTypeHandlerBase + 13;  ///< reduce result fan-out

/// Combining operator of the small-payload reduce collective. All three are
/// associative and commutative over u64, so the fold result is independent
/// of arrival order.
enum class ReduceOp : std::uint8_t {
  kSum = 0,
  kMin = 1,
  kMax = 2,
};

/// CPU/NIC cycle costs of the protocol software (identical *counts* in both
/// configurations; what differs is which processor runs them and whether an
/// interrupt precedes them).
struct DsmParams {
  std::uint32_t fault_trap_cycles = 600;         ///< page-fault trap + dispatch (host)
  std::uint32_t request_build_cycles = 150;      ///< building one request message (host)
  std::uint32_t release_local_cycles = 80;       ///< closing an interval (host)
  std::uint32_t handler_base_cycles = 120;       ///< fixed per protocol handler activation
  std::uint32_t handler_per_interval_cycles = 25;
  std::uint32_t handler_per_notice_cycles = 8;
  std::uint32_t diff_word_cycles = 1;            ///< make/apply diffs, per 8 bytes
  std::uint32_t twin_word_cycles = 2;            ///< twin copy, per 8 bytes (host)
  std::uint64_t handler_code_bytes = 16 * 1024;  ///< AIH object-code footprint
  /// Where barriers run: kHost = the seed's centralized manager on node 0,
  /// kNic = the NIC-resident combining tree, its fan-in derived from the
  /// topology's distances (atm::make_collective_tree). Reduce always uses
  /// the DsmSystem's tree; host mode just makes that tree a star at node 0.
  cluster::CollectiveMode collective = cluster::default_collective();
};

}  // namespace cni::dsm
