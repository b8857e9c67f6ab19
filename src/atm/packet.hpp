// Network frames.
//
// A Frame is what one AAL5-style SAR unit reassembles at the receiver: a
// contiguous byte payload whose first bytes form the demultiplexing header
// the PATHFINDER classifies on. Frames carry real data (DSM pages, diffs,
// application messages); timing is computed by the fabric and NIC models.
//
// The payload is a pooled, ref-counted util::Buf: building a frame is one
// pool allocation, and every hop after that (fabric delivery, channel
// queues, handler dispatch) shares the same buffer by refcount instead of
// copying it. `parts()`/`assemble()` flatten a frame into a trivially
// copyable POD so event callbacks can carry one inline through the engine
// (sim::InlineFn) without touching the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/buf_pool.hpp"
#include "util/check.hpp"

namespace cni::atm {

using NodeId = std::uint32_t;

/// Per-frame fabric-attribution breakdown, packed into Frame::fab by the
/// fabric at route time and unpacked at delivery on the destination node —
/// deferring the ring writes to delivery keeps trace order independent of
/// the (K- and fusion-dependent) drain interleaving. Nanosecond fields
/// saturate; `hops` counts switch stages / links traversed.
struct FabBreakdown {
  std::uint32_t wire_ns = 0;      ///< serialization + propagation (20 bits)
  std::uint32_t contend_ns = 0;   ///< switch-port / downlink contention (18 bits)
  std::uint32_t credit_ns = 0;    ///< credit-stall wait (18 bits)
  std::uint32_t hops = 0;         ///< stages + links traversed (8 bits)

  [[nodiscard]] std::uint64_t pack() const {
    const auto sat = [](std::uint64_t v, unsigned bits) {
      const std::uint64_t cap = (1ull << bits) - 1;
      return v < cap ? v : cap;
    };
    return sat(wire_ns, 20) | (sat(contend_ns, 18) << 20) |
           (sat(credit_ns, 18) << 38) | (sat(hops, 8) << 56);
  }
  [[nodiscard]] static FabBreakdown unpack(std::uint64_t p) {
    FabBreakdown b;
    b.wire_ns = static_cast<std::uint32_t>(p & 0xfffffu);
    b.contend_ns = static_cast<std::uint32_t>((p >> 20) & 0x3ffffu);
    b.credit_ns = static_cast<std::uint32_t>((p >> 38) & 0x3ffffu);
    b.hops = static_cast<std::uint32_t>((p >> 56) & 0xffu);
    return b;
  }
};

struct Frame {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t vci = 0;  ///< virtual circuit id (coarse demux, per OSIRIS)
  std::uint64_t trace = 0;  ///< causal parent token (obs/causal.hpp); 0 = untraced
  std::uint64_t fab = 0;    ///< packed FabBreakdown, filled by the fabric route
  util::Buf payload;

  [[nodiscard]] std::uint64_t size() const { return payload.size(); }

  [[nodiscard]] std::span<const std::byte> bytes() const { return payload.span(); }
  [[nodiscard]] std::span<std::byte> mutable_bytes() { return payload.span(); }

  /// Reads a trivially-copyable header of type T from the payload front.
  template <typename T>
  [[nodiscard]] T header() const {
    static_assert(std::is_trivially_copyable_v<T>);
    CNI_CHECK_MSG(payload.size() >= sizeof(T), "frame shorter than its header");
    T t;
    std::memcpy(&t, payload.data(), sizeof(T));
    return t;
  }

  /// Builds a frame from a header plus body bytes, serialized straight into
  /// pooled storage (one allocation, no intermediate vector).
  template <typename T>
  static Frame make(NodeId src, NodeId dst, std::uint32_t vci, const T& hdr,
                    std::span<const std::byte> body = {}) {
    static_assert(std::is_trivially_copyable_v<T>);
    Frame f;
    f.src = src;
    f.dst = dst;
    f.vci = vci;
    f.payload = util::Buf::alloc(sizeof(T) + body.size());
    std::memcpy(f.payload.data(), &hdr, sizeof(T));
    if (!body.empty()) {
      std::memcpy(f.payload.data() + sizeof(T), body.data(), body.size());
    }
    return f;
  }

  /// Wraps an already-serialized payload buffer without copying it.
  static Frame adopt(NodeId src, NodeId dst, std::uint32_t vci, util::Buf payload) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.vci = vci;
    f.payload = std::move(payload);
    return f;
  }

  /// A zero-filled frame of `bytes` payload (tests and timing-only probes).
  static Frame blank(NodeId src, NodeId dst, std::uint32_t vci, std::size_t bytes) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.vci = vci;
    f.payload = util::Buf::alloc_zeroed(bytes);
    return f;
  }

  /// Trivially copyable flattened form for inline event captures. Owns one
  /// payload reference; `assemble()` takes it back. A FrameParts that is
  /// dropped without assemble() leaks that reference, so callbacks carrying
  /// one must release it in their destructor (see sim/inline_fn.hpp's
  /// trivially-relocatable callables).
  ///
  /// 32 bytes: the routing ids share one word (src:16 | dst:16 | vci:32 —
  /// the node ceiling is 4096) so the causal token and the packed fabric
  /// breakdown fit while a [this, handler] capture plus a Parts still lands
  /// exactly on sim::InlineFn's 48-byte inline budget.
  struct Parts {
    std::uint64_t ids;
    util::BufCtrl* buf;
    std::uint64_t trace;
    std::uint64_t fab;
  };
  static_assert(sizeof(Parts) == 32);

  /// Flattens into a Parts, transferring the payload reference out.
  [[nodiscard]] Parts to_parts() && {
    const std::uint64_t ids = (static_cast<std::uint64_t>(src & 0xffffu)) |
                              (static_cast<std::uint64_t>(dst & 0xffffu) << 16) |
                              (static_cast<std::uint64_t>(vci) << 32);
    return Parts{ids, payload.release(), trace, fab};
  }

  /// Rebuilds a frame from a Parts, taking over its payload reference.
  [[nodiscard]] static Frame assemble(const Parts& p) {
    Frame f = adopt(static_cast<NodeId>(p.ids & 0xffffu),
                    static_cast<NodeId>((p.ids >> 16) & 0xffffu),
                    static_cast<std::uint32_t>(p.ids >> 32), util::Buf::adopt(p.buf));
    f.trace = p.trace;
    f.fab = p.fab;
    return f;
  }
};

/// Event callback that carries a Frame through the engine inline. The
/// frame's Buf handle is flattened to Parts (a raw control pointer), which
/// makes the functor safe to relocate with memcpy — it self-certifies via
/// sim::InlineFn's kTriviallyRelocatable opt-in and so stays in the event's
/// inline buffer instead of forcing the heap fallback. The destructor drops
/// the payload reference if the event is destroyed without firing (engine
/// teardown), so no frame ever leaks.
template <typename F>
class FrameTask {
 public:
  static constexpr bool kTriviallyRelocatable = true;
  static_assert(std::is_trivially_copyable_v<F>,
                "the wrapped callable must itself be memcpy-relocatable");

  FrameTask(F fn, Frame f) : fn_(fn), parts_(std::move(f).to_parts()) {}

  FrameTask(FrameTask&& o) noexcept : fn_(o.fn_), parts_(o.parts_) {
    o.parts_.buf = nullptr;
  }
  FrameTask(const FrameTask&) = delete;
  FrameTask& operator=(const FrameTask&) = delete;
  FrameTask& operator=(FrameTask&&) = delete;

  ~FrameTask() {
    if (parts_.buf != nullptr) {
      util::Buf dropped = util::Buf::adopt(parts_.buf);  // releases on scope exit
    }
  }

  void operator()() {
    Frame::Parts p = parts_;
    parts_.buf = nullptr;
    fn_(Frame::assemble(p));
  }

 private:
  F fn_;
  Frame::Parts parts_;
};

template <typename F>
FrameTask(F, Frame) -> FrameTask<F>;

}  // namespace cni::atm
