// Vector timestamps for the lazy release consistency protocol.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

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

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t nodes) : v_(nodes, 0) {}
  explicit VectorClock(ClockView o) : v_(o.begin(), o.end()) {}

  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const { return v_.at(i); }
  void set(std::size_t i, std::uint32_t val) { v_.at(i) = val; }

  void advance(std::size_t i) { ++v_.at(i); }

  /// Copies a wire clock's entries into this clock's storage.
  void assign(ClockView o) { v_.assign(o.begin(), o.end()); }

  /// Pointwise maximum (the acquirer's clock after an acquire).
  void merge(const VectorClock& o) {
    CNI_CHECK(o.size() == size());
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] = std::max(v_[i], o.v_[i]);
  }
  void merge(ClockView o) {
    CNI_CHECK(o.size() == size());
    std::transform(v_.begin(), v_.end(), o.begin(), v_.begin(),
                   [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  }

  /// Pointwise minimum (a combining tree's subtree floor).
  void min_in_place(const VectorClock& o) {
    CNI_CHECK(o.size() == size());
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] = std::min(v_[i], o.v_[i]);
  }

  /// True iff this <= o pointwise (this happened-before-or-equals o).
  [[nodiscard]] bool dominated_by(const VectorClock& o) const {
    CNI_CHECK(o.size() == size());
    for (std::size_t i = 0; i < v_.size(); ++i) {
      if (v_[i] > o.v_[i]) return false;
    }
    return true;
  }

  /// Neither dominates: the two clocks are concurrent.
  [[nodiscard]] bool concurrent_with(const VectorClock& o) const {
    return !dominated_by(o) && !o.dominated_by(*this);
  }

  bool operator==(const VectorClock&) const = default;

  /// This clock's entries in wire form; valid while the clock lives unresized.
  // NOLINTNEXTLINE(google-explicit-constructor): a clock *is* its entries
  operator ClockView() const {
    return {reinterpret_cast<const std::byte*>(v_.data()), v_.size()};
  }

 private:
  std::vector<std::uint32_t> v_;
};

}  // namespace cni::dsm
