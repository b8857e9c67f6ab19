// Vector timestamps for the lazy release consistency protocol.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace cni::dsm {

/// A read-only view of n host-order T values as they lie in wire bytes,
/// possibly unaligned, so every read is a memcpy. Interval records and diffs
/// keep their clocks and write notices this way and are read in place
/// (DESIGN.md §10). Valid while the viewed bytes live.
template <class T>
class WireArray {
 public:
  struct iterator {
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = T;
    T operator*() const { return load(p); }
    iterator& operator++() {
      p += sizeof(T);
      return *this;
    }
    bool operator==(const iterator&) const = default;
    const std::byte* p = nullptr;
  };

  WireArray() = default;
  WireArray(const std::byte* p, std::size_t n) : p_(p), n_(n) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] T operator[](std::size_t i) const {
    CNI_CHECK_LT(i, n_);
    return load(p_ + i * sizeof(T));
  }
  /// The encoded values, without any count prefix.
  [[nodiscard]] std::span<const std::byte> bytes() const { return {p_, n_ * sizeof(T)}; }
  [[nodiscard]] iterator begin() const { return {p_}; }
  [[nodiscard]] iterator end() const { return {p_ + n_ * sizeof(T)}; }

  /// True iff this <= o pointwise (for clocks: happened-before-or-equals).
  [[nodiscard]] bool dominated_by(WireArray o) const {
    CNI_CHECK(o.size() == size());
    return std::equal(begin(), end(), o.begin(), std::less_equal<T>());
  }

 private:
  static T load(const std::byte* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  const std::byte* p_ = nullptr;
  std::size_t n_ = 0;
};

/// A clock as it lies on the wire: its entries, read in place.
using ClockView = WireArray<std::uint32_t>;

/// A vector timestamp. A clock whose entries are all zero holds no entry
/// storage, only its size: it reads and compares as zeros, and its view is
/// the shared zero block. It allocates at its first nonzero `set`,
/// `advance`, `merge` or `assign`, and frees its storage again when it is
/// assigned or min-folded to all zeros. A program that closes no interval
/// (a barrier-only run) so keeps N nodes' clocks, and every copy of them,
/// in O(N) bytes rather than O(N^2) (DESIGN.md §16).
class VectorClock {
 public:
  /// The widest clock: node ids are 16 bits on the wire.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 16;

  VectorClock() = default;
  explicit VectorClock(std::size_t nodes) : n_(checked_size(nodes)) {}
  explicit VectorClock(ClockView o) { assign(o); }

  VectorClock(const VectorClock& o) : n_(o.n_) {
    if (o.v_) store(o.bytes(), o.n_);
  }
  VectorClock& operator=(const VectorClock& o) {
    if (this == &o) return *this;
    if (o.v_) {
      store(o.bytes(), o.n_);
    } else {
      v_.reset();
      n_ = o.n_;
    }
    return *this;
  }
  VectorClock(VectorClock&&) noexcept = default;
  VectorClock& operator=(VectorClock&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    CNI_CHECK_LT(i, n_);
    return v_ ? v_[i] : 0;
  }
  void set(std::size_t i, std::uint32_t val) {
    CNI_CHECK_LT(i, n_);
    if (!v_) {
      if (val == 0) return;
      materialize();
    }
    v_[i] = val;
  }

  void advance(std::size_t i) {
    CNI_CHECK_LT(i, n_);
    if (!v_) materialize();
    ++v_[i];
  }

  /// Copies a wire clock's entries into this clock's storage; an all-zero
  /// clock frees it instead.
  void assign(ClockView o) {
    const std::uint32_t n = checked_size(o.size());
    if (all_zero(o)) {
      v_.reset();
      n_ = n;
    } else {
      store(o.bytes().data(), n);
    }
  }

  /// Pointwise maximum (the acquirer's clock after an acquire).
  void merge(const VectorClock& o) {
    CNI_CHECK(o.n_ == n_);
    if (!o.v_) return;
    if (!v_) {
      store(o.bytes(), n_);
      return;
    }
    for (std::size_t i = 0; i < n_; ++i) v_[i] = std::max(v_[i], o.v_[i]);
  }
  void merge(ClockView o) {
    CNI_CHECK(o.size() == n_);
    if (!v_) {
      assign(o);
      return;
    }
    std::transform(v_.get(), v_.get() + n_, o.begin(), v_.get(),
                   [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  }

  /// Pointwise minimum (a combining tree's subtree floor).
  void min_in_place(const VectorClock& o) {
    CNI_CHECK(o.n_ == n_);
    if (!v_) return;
    if (!o.v_) {
      v_.reset();
      return;
    }
    std::uint32_t any = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      v_[i] = std::min(v_[i], o.v_[i]);
      any |= v_[i];
    }
    if (any == 0) v_.reset();
  }

  /// True iff this <= o pointwise (this happened-before-or-equals o).
  [[nodiscard]] bool dominated_by(const VectorClock& o) const {
    CNI_CHECK(o.n_ == n_);
    if (!v_) return true;
    const std::uint32_t* b = o.entries();
    for (std::size_t i = 0; i < n_; ++i) {
      if (v_[i] > b[i]) return false;
    }
    return true;
  }

  /// Neither dominates: the two clocks are concurrent.
  [[nodiscard]] bool concurrent_with(const VectorClock& o) const {
    return !dominated_by(o) && !o.dominated_by(*this);
  }

  /// Equal sizes and entries, however each clock holds them.
  bool operator==(const VectorClock& o) const {
    if (n_ != o.n_) return false;
    if (!v_ && !o.v_) return true;
    return std::memcmp(entries(), o.entries(), std::size_t{n_} * 4) == 0;
  }

  /// True iff `v` views the shared zero block: the view of a clock with no
  /// storage, every entry zero.
  [[nodiscard]] static bool views_zero_block(ClockView v) {
    return v.bytes().data() == reinterpret_cast<const std::byte*>(zeros());
  }

  /// This clock's entries in wire form; valid until the clock's next
  /// mutation. (A view of a clock with no storage reads the zero block, and
  /// keeps reading zeros after the clock allocates.)
  // NOLINTNEXTLINE(google-explicit-constructor): a clock *is* its entries
  operator ClockView() const { return {bytes(), n_}; }

 private:
  /// What a clock with no storage reads: kMaxEntries zeros in an anonymous
  /// read-only mapping, made at first use (thread-safe). Its untouched pages
  /// read as the kernel's shared zero page, so reading it adds nothing to
  /// the resident set (a const array would sit in the binary's read-only
  /// data, whose file pages fault in with their neighbours), and a stray
  /// write still faults.
  static const std::uint32_t* zeros() {
    static const std::uint32_t* const block = [] {
      void* p = ::mmap(nullptr, kMaxEntries * sizeof(std::uint32_t), PROT_READ,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      CNI_CHECK_MSG(p != MAP_FAILED, "mmap of the zero clock block failed");
      return static_cast<const std::uint32_t*>(p);
    }();
    return block;
  }

  static std::uint32_t checked_size(std::size_t n) {
    CNI_CHECK_LE(n, kMaxEntries);
    return static_cast<std::uint32_t>(n);
  }

  /// True iff every entry of `o` is zero: a view of the zero block, or one
  /// memcmp against it, which compares whole vector words and stops at the
  /// first that differs. (checked_size bounds `o` to the block's length.)
  static bool all_zero(ClockView o) {
    const std::span<const std::byte> b = o.bytes();
    const auto* z = reinterpret_cast<const std::byte*>(zeros());
    return b.empty() || b.data() == z || std::memcmp(b.data(), z, b.size()) == 0;
  }

  [[nodiscard]] const std::uint32_t* entries() const { return v_ ? v_.get() : zeros(); }
  [[nodiscard]] const std::byte* bytes() const {
    return reinterpret_cast<const std::byte*>(entries());
  }

  /// Gives a clock with no storage its entries, all zero.
  void materialize() {
    // cni-lint: allow(hot-path-alloc): a clock's first nonzero entry; a run
    // whose clocks stay zero never gets here.
    v_ = std::make_unique<std::uint32_t[]>(n_);
  }

  /// Holds `n` entries copied from `src` (which may lie in this clock's own
  /// storage: a new block is filled before the old one is freed).
  void store(const std::byte* src, std::uint32_t n) {
    if (v_ && n_ == n) {
      std::memmove(v_.get(), src, std::size_t{n} * 4);
    } else {
      // cni-lint: allow(hot-path-alloc): a copy of a clock with a nonzero
      // entry; copies of all-zero clocks allocate nothing.
      auto fresh = std::make_unique_for_overwrite<std::uint32_t[]>(n);
      std::memcpy(fresh.get(), src, std::size_t{n} * 4);
      v_ = std::move(fresh);
    }
    n_ = n;
  }

  std::unique_ptr<std::uint32_t[]> v_;  ///< n_ entries, or null while all are zero
  std::uint32_t n_ = 0;
};

// A PageEntry per shared page per node embeds one, and the barrier-release
// event carries one in InlineFn's 48-byte buffer beside a std::vector.
static_assert(sizeof(VectorClock) <= 16, "a clock is a pointer and a 32-bit size");

}  // namespace cni::dsm
