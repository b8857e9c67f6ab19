// Intrusively ref-counted payload buffers with a per-thread block cache —
// the zero-copy data path.
//
// Every simulated frame, DSM payload and diff arena is a `Buf`: a handle to
// a block whose control word (refcount, size class, owner) lives immediately
// before the data. Copying a Buf bumps the refcount, so one buffer is shared
// across transmit, Message Cache binding and delivery instead of being
// memcpy'd at every layer boundary.
//
// Blocks of up to 64 KiB are rounded up to a size class (64 B, then four
// classes per octave, so above 64 B a block exceeds its request by less
// than a quarter) and recycled through a cache that belongs to the
// allocating thread and that no other thread touches, so the steady-state
// frame send/receive loop performs no heap allocation. Three rules, and no
// cross-thread protocol:
//
//   * a block whose last reference drops on the thread that allocated it
//     goes onto that thread's list for its size class;
//   * a block dropped on any other thread (a buffer that outlived its
//     thread) goes straight back to the heap;
//   * destroying a cluster::Cluster returns its thread's cached blocks to
//     the heap (`BufCachePurge`), so one simulation's buffers neither
//     outlive it nor pin the heap under the next. Thread exit does the same.
//
// Determinism: caching changes *where* payload bytes live, never their
// values or any simulated timing.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace cni::util {

/// Control block preceding a buffer's data bytes. `sizeof(BufCtrl)` is a
/// multiple of max_align_t alignment so the data area keeps full alignment.
struct alignas(std::max_align_t) BufCtrl {
  std::atomic<std::uint32_t> refs;
  std::uint32_t size_class;  ///< Buf::kUnpooledClass: exact heap block, never cached
  std::uint64_t capacity;    ///< data bytes available
  std::uint64_t size;        ///< logical payload length
  /// The allocating thread's cache (nullptr: never cached), kept untyped:
  /// it is only compared with the releasing thread's cache.
  const void* owner;
  BufCtrl* next;  ///< free-list link

  [[nodiscard]] std::byte* data() noexcept {
    return reinterpret_cast<std::byte*>(this + 1);
  }
  [[nodiscard]] const std::byte* data() const noexcept {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
};

/// Ref-counted handle to cached storage. Copy shares (refcount bump), move
/// steals. `release()`/`adopt()` convert to and from a raw BufCtrl* so a
/// trivially-relocatable event callback can carry a buffer through the
/// engine without the heap fallback (see sim/inline_fn.hpp).
class Buf {
 public:
  /// Size classes: 64 B, then quarter octaves up to 64 KiB (80, 96, 112,
  /// 128, 160, ..., 65,536), so above 64 B a block exceeds its request by
  /// less than a quarter (DESIGN.md §10). Larger requests get exact heap
  /// blocks that are never cached.
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = 64 * 1024;
  static constexpr std::uint32_t kClassCount = 41;  // 64 B, then 4 per octave x 10
  static constexpr std::uint32_t kUnpooledClass = 0xFFFFFFFF;

  /// Allocates a buffer of logical size `n` (contents uninitialized).
  [[nodiscard]] static Buf alloc(std::size_t n);

  /// Allocates a zero-filled buffer.
  [[nodiscard]] static Buf alloc_zeroed(std::size_t n) {
    Buf b = alloc(n);
    std::memset(b.data(), 0, n);
    return b;
  }

  /// Maps a byte count to the smallest size class that holds it
  /// (kUnpooledClass when too large).
  [[nodiscard]] static constexpr std::uint32_t class_of(std::size_t n) noexcept {
    if (n > kMaxClassBytes) return kUnpooledClass;
    if (n <= kMinClassBytes) return 0;
    // n - 1 lies in the octave [2^(w-1), 2^w); the two bits below its
    // leading one pick the quarter, so n fits that quarter's upper bound.
    const std::size_t m = n - 1;
    const auto w = static_cast<unsigned>(std::bit_width(m));
    const auto quarter = static_cast<std::uint32_t>((m >> (w - 3)) & 3);
    return (w - 7) * 4 + quarter + 1;
  }

  /// Data bytes of a block in size class `sc` (< kClassCount).
  [[nodiscard]] static constexpr std::size_t class_bytes(std::uint32_t sc) noexcept {
    if (sc == 0) return kMinClassBytes;
    const std::uint32_t octave = (sc - 1) / 4;
    const std::uint32_t quarter = (sc - 1) % 4;
    return std::size_t{5 + quarter} << (octave + 4);
  }

  Buf() noexcept = default;
  Buf(const Buf& o) noexcept : c_(o.c_) { retain(c_); }
  Buf(Buf&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  Buf& operator=(const Buf& o) noexcept {
    if (this != &o) {
      retain(o.c_);
      drop(std::exchange(c_, o.c_));
    }
    return *this;
  }
  Buf& operator=(Buf&& o) noexcept {
    if (this != &o) drop(std::exchange(c_, std::exchange(o.c_, nullptr)));
    return *this;
  }
  ~Buf() { drop(c_); }

  [[nodiscard]] bool empty() const noexcept { return c_ == nullptr || c_->size == 0; }
  [[nodiscard]] explicit operator bool() const noexcept { return c_ != nullptr; }

  [[nodiscard]] std::size_t size() const noexcept { return c_ == nullptr ? 0 : c_->size; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return c_ == nullptr ? 0 : c_->capacity;
  }

  [[nodiscard]] std::byte* data() noexcept { return c_ == nullptr ? nullptr : c_->data(); }
  [[nodiscard]] const std::byte* data() const noexcept {
    return c_ == nullptr ? nullptr : c_->data();
  }

  [[nodiscard]] std::span<std::byte> span() noexcept { return {data(), size()}; }
  [[nodiscard]] std::span<const std::byte> span() const noexcept { return {data(), size()}; }
  // NOLINTNEXTLINE(google-explicit-constructor): a Buf *is* a byte view
  operator std::span<const std::byte>() const noexcept { return span(); }

  /// Shrinks or grows the logical length within the block's capacity.
  void set_size(std::size_t n) {
    CNI_CHECK(c_ != nullptr && n <= c_->capacity);
    c_->size = n;
  }

  /// True iff this handle is the only owner (safe to mutate a shared block).
  [[nodiscard]] bool unique() const noexcept {
    // acquire: pairs with drop's acq_rel decrement, so observing refs == 1
    // also observes every other (former) owner's writes to the block.
    return c_ != nullptr && c_->refs.load(std::memory_order_acquire) == 1;
  }

  [[nodiscard]] std::uint32_t ref_count() const noexcept {
    // acquire: mirror unique() so callers comparing counts see settled state.
    return c_ == nullptr ? 0 : c_->refs.load(std::memory_order_acquire);
  }

  void reset() noexcept { drop(std::exchange(c_, nullptr)); }

  /// Transfers this handle's reference out as a raw pointer (no ref change).
  [[nodiscard]] BufCtrl* release() noexcept { return std::exchange(c_, nullptr); }

  /// Re-wraps a pointer from release(), taking over its reference.
  [[nodiscard]] static Buf adopt(BufCtrl* c) noexcept { return Buf(c); }

 private:
  explicit Buf(BufCtrl* c) noexcept : c_(c) {}

  static void retain(BufCtrl* c) noexcept {
    // relaxed: taking a new reference needs no ordering — the caller already
    // holds one, and only the final drop synchronizes (acq_rel there).
    if (c != nullptr) c->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void drop(BufCtrl* c) noexcept;

  BufCtrl* c_ = nullptr;
};

namespace detail {

struct BufCache;

/// The calling thread's live cache, or null. A raw pointer, trivially
/// destructible, so a release during thread teardown can still read it and
/// send its block to the heap.
inline thread_local BufCache* tls_buf_cache = nullptr;
/// Set when thread teardown destroys the cache, which is never recreated.
inline thread_local bool tls_buf_cache_gone = false;

/// One thread's free lists, one per size class. Only that thread reads or
/// writes them; other threads meet the cache only as a BufCtrl::owner tag.
struct BufCache {
  BufCtrl* free[Buf::kClassCount] = {};

  BufCache() = default;
  BufCache(const BufCache&) = delete;
  BufCache& operator=(const BufCache&) = delete;
  ~BufCache() {
    tls_buf_cache = nullptr;
    tls_buf_cache_gone = true;
    purge();
  }

  /// Returns every listed block to the heap.
  void purge() noexcept {
    for (BufCtrl*& head : free) {
      while (head != nullptr) ::operator delete(std::exchange(head, head->next));
    }
  }

  /// The calling thread's cache, created on first use; null once thread
  /// teardown has destroyed it.
  static BufCache* local() noexcept {
    if (tls_buf_cache == nullptr && !tls_buf_cache_gone) {
      thread_local BufCache cache;
      tls_buf_cache = &cache;
    }
    return tls_buf_cache;
  }
};

}  // namespace detail

/// Returns the calling thread's cached blocks to the heap when destroyed.
/// cluster::Cluster declares one as its first member, so the purge runs
/// after every other member has dropped its buffers.
struct BufCachePurge {
  BufCachePurge() = default;
  BufCachePurge(const BufCachePurge&) = delete;
  BufCachePurge& operator=(const BufCachePurge&) = delete;
  ~BufCachePurge() {
    if (detail::tls_buf_cache != nullptr) detail::tls_buf_cache->purge();
  }
};

inline Buf Buf::alloc(std::size_t n) {
  const std::uint32_t sc = class_of(n);
  detail::BufCache* cache = sc == kUnpooledClass ? nullptr : detail::BufCache::local();
  BufCtrl* c = cache == nullptr ? nullptr : cache->free[sc];
  if (c != nullptr) {
    cache->free[sc] = c->next;
  } else {
    const std::size_t cap = sc == kUnpooledClass ? n : class_bytes(sc);
    c = static_cast<BufCtrl*>(::operator new(sizeof(BufCtrl) + cap));
    c->size_class = sc;
    c->capacity = cap;
    c->owner = cache;
  }
  // relaxed: the block is this thread's alone; it becomes visible to other
  // threads only through later synchronizing handoffs.
  c->refs.store(1, std::memory_order_relaxed);
  c->size = n;
  return Buf(c);
}

inline void Buf::drop(BufCtrl* c) noexcept {
  // acq_rel: the final drop must acquire every other owner's writes to the
  // block before recycling it, and release its own for the next allocator.
  if (c == nullptr || c->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // A thread that reuses an exited thread's cache address may also take its
  // orphaned blocks: any heap block of the right class serves.
  detail::BufCache* cache = detail::tls_buf_cache;
  if (cache != nullptr && c->owner == cache) {
    c->next = cache->free[c->size_class];
    cache->free[c->size_class] = c;
  } else {
    ::operator delete(c);
  }
}

}  // namespace cni::util
