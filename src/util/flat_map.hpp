// Open-addressed hash map for 64-bit integer keys (page numbers, frames).
//
// The buffer map and the page-table lookups behind the board TLB/RTLB sit on
// the bus-snoop path, which runs on *every* write transaction the simulated
// memory bus carries — node-count × run-length times per experiment.
// std::unordered_map pays a pointer chase per probe there; this table keeps
// entries in one flat power-of-two array with linear probing, so the common
// hit is a single cache line. Erase uses backward-shift deletion, so there
// are no tombstones and probe sequences never degrade over time.
//
// A map allocates nothing until its first insert, and a lookup in an empty
// map returns before it hashes: most nodes of a large cluster never fill
// their page tables, buffer map or channel map. An insert may
// rehash, which moves every entry, so a pointer into the map is stable only
// while nothing is inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace cni::util {

template <typename V>
class U64FlatMap {
 public:
  U64FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr if absent.
  [[nodiscard]] V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;  // also: a map with no slots has no home()
    std::size_t i = home(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].val;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<U64FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Inserts `val` under `key`; overwrites an existing entry. Returns a
  /// reference to the stored value.
  V& insert(std::uint64_t key, V val) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = home(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        slots_[i].val = std::move(val);
        return slots_[i].val;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, std::move(val), true};
    ++size_;
    return slots_[i].val;
  }

  /// Removes `key` if present (backward-shift: no tombstones). Returns true
  /// iff an entry was removed.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        shift_backward(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.val);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = 0;
    V val{};
    bool used = false;
  };

  /// Fibonacci hashing: one multiply, and the golden-ratio stride spreads
  /// the sequential page numbers these tables hold evenly, so probe
  /// sequences stay short without an avalanche finalizer. Only a map with
  /// slots may call it: shift_ stays 64 until the first rehash.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    CNI_DCHECK(shift_ < 64);
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    CNI_DCHECK((capacity & (capacity - 1)) == 0);
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64;
    while (capacity > 1) {
      --shift_;
      capacity >>= 1;
    }
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) insert(s.key, std::move(s.val));
    }
  }

  /// Closes the hole at `i` by walking the cluster and moving back every
  /// entry whose probe sequence passes through the hole.
  void shift_backward(std::size_t i) {
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const std::size_t h = home(slots_[j].key);
      // Move j into the hole iff its home position precedes the hole in the
      // (cyclic) probe order — i.e. the hole lies on j's probe path.
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].used = false;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace cni::util
