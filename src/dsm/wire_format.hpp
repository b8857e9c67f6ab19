// Byte-level serialization for DSM protocol payloads.
//
// Protocol messages (lock grants carrying interval sets, page and diff
// replies) have variable-length bodies; these helpers lay them out after the
// fixed MsgHeader so the frames that cross the simulated wire carry real,
// parseable bytes — their sizes drive the ATM cell counts and DMA costs.
//
// ByteWriter serializes straight into pooled storage (util::Buf): a writer
// opened with `headroom` leaves that many bytes unwritten at the front, so
// the frame header is patched in place and `take()` hands the finished
// payload to atm::Frame::adopt with zero copies. ByteReader is a
// non-owning view; when constructed over a Buf it can hand out sub-views
// that share the backing buffer by refcount (zero-copy deserialization).
// Clocks are written from and read as ClockViews: one memcpy out, and read
// in place where they arrive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "dsm/vector_clock.hpp"
#include "util/buf_pool.hpp"
#include "util/check.hpp"

namespace cni::dsm {

/// Malformed or truncated wire bytes. Thrown (not CNI_CHECK-aborted) by the
/// deserialization paths: a decoder's input arrives from outside the
/// process's own invariants, so a bad payload must be recoverable — it is
/// what the fuzz harness (tests/fuzz) drives with arbitrary bytes. Writer-
/// side size checks stay CNI_CHECK: they guard our own serialization.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  ByteWriter() : ByteWriter(0) {}

  /// Opens a writer whose first `headroom` bytes are reserved for a header
  /// to be patched in later (they count toward the taken buffer's size).
  /// A caller that knows the finished size (headroom included) passes it as
  /// `capacity` and skips the grow-and-copy of the doubling policy.
  explicit ByteWriter(std::size_t headroom, std::size_t capacity = kInitialBytes)
      : size_(headroom) {
    buf_ = util::Buf::alloc(std::max(capacity, size_));
  }

  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }

  void bytes(std::span<const std::byte> b) {
    // The length field is 32 bits on the wire; a larger span would silently
    // truncate and desynchronise every later read of the payload.
    CNI_CHECK_LE(b.size(), UINT32_MAX);
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  /// A u32 entry count, then the entries as host-order u32s.
  void clock(ClockView vc) {
    CNI_CHECK_LE(vc.size(), UINT32_MAX);
    u32(static_cast<std::uint32_t>(vc.size()));
    // A clock with no storage views the shared zero block: write its zeros
    // without reading them. (Copying from the block's page-aligned mapping
    // runs several times slower when the destination lies a few words past
    // a 64-byte boundary, as a frame's clock does.)
    if (VectorClock::views_zero_block(vc)) {
      zeros(vc.bytes().size());
    } else {
      append(vc.bytes());
    }
  }

  /// Already-encoded bytes, as they are (no length prefix).
  void append(std::span<const std::byte> b) { raw(b.data(), b.size()); }

  /// Bytes written so far, including any headroom.
  [[nodiscard]] std::span<const std::byte> data() const {
    return buf_.span().first(size_);
  }

  /// Hands the payload out (headroom + serialized bytes). The writer is
  /// empty afterwards.
  [[nodiscard]] util::Buf take() {
    buf_.set_size(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kInitialBytes = 256;

  // n == 0 also keeps memcpy and memset off a never-allocated buffer.
  void raw(const void* p, std::size_t n) {
    if (n != 0) std::memcpy(extend(n), p, n);
  }
  void zeros(std::size_t n) {
    if (n != 0) std::memset(extend(n), 0, n);
  }

  /// Grows the payload by n > 0 bytes and returns where they go.
  std::byte* extend(std::size_t n) {
    if (size_ + n > buf_.capacity()) grow(size_ + n);
    std::byte* dst = buf_.data();
    CNI_CHECK(dst != nullptr);  // grow() guarantees a backing block
    dst += size_;
    size_ += n;
    return dst;
  }

  void grow(std::size_t need) {
    std::size_t cap = buf_.capacity() * 2;
    if (cap < need) cap = need;
    util::Buf bigger = util::Buf::alloc(cap);
    std::memcpy(bigger.data(), buf_.data(), size_);
    buf_ = std::move(bigger);
  }

  util::Buf buf_;
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buf) : buf_(buf) {}

  /// A reader over `backing`'s bytes starting at `offset`. Sub-views handed
  /// out by bytes() share `backing` by refcount via backing().
  ByteReader(const util::Buf& backing, std::size_t offset)
      : buf_(backing.span().subspan(offset)), backing_(backing) {}

  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }

  /// A view of the next length-prefixed byte run. Valid while the underlying
  /// storage lives; hold backing() (when non-empty) to pin it.
  std::span<const std::byte> bytes() { return take(u32()); }

  /// The next clock, read in place. Valid while the underlying storage
  /// lives, like bytes(). take() checks the count against the bytes left.
  ClockView clock_view() {
    const std::uint32_t n = u32();
    return ClockView(take(std::size_t{n} * 4).data(), n);
  }

  /// The next clock, copied out (an all-zero one holds no entries). One
  /// wider than 16-bit node ids can address is malformed.
  VectorClock clock() {
    const ClockView vc = clock_view();
    if (vc.size() > VectorClock::kMaxEntries) throw WireError("DSM clock too wide");
    return VectorClock(vc);
  }

  /// A view of the next `n` bytes (no length prefix).
  std::span<const std::byte> take(std::size_t n) {
    if (n > remaining()) throw WireError("truncated DSM payload");
    const std::span<const std::byte> out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// The bytes not read yet.
  [[nodiscard]] std::span<const std::byte> rest() const { return buf_.subspan(pos_); }

  /// The refcounted buffer the views point into (empty when the reader was
  /// built over a bare span).
  [[nodiscard]] const util::Buf& backing() const { return backing_; }

  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void raw(void* p, std::size_t n) {
    if (pos_ + n > buf_.size()) throw WireError("truncated DSM payload");
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const std::byte> buf_;
  util::Buf backing_;
  std::size_t pos_ = 0;
};

}  // namespace cni::dsm
