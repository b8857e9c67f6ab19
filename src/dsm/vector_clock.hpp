// Vector timestamps for the lazy release consistency protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace cni::dsm {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t nodes) : v_(nodes, 0) {}
  explicit VectorClock(std::vector<std::uint32_t> entries) : v_(std::move(entries)) {}

  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const { return v_.at(i); }
  void set(std::size_t i, std::uint32_t val) { v_.at(i) = val; }

  void advance(std::size_t i) { ++v_.at(i); }

  /// Pointwise maximum (the acquirer's clock after an acquire).
  void merge(const VectorClock& o) {
    CNI_CHECK(o.size() == size());
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] = std::max(v_[i], o.v_[i]);
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

  [[nodiscard]] const std::vector<std::uint32_t>& raw() const { return v_; }

 private:
  std::vector<std::uint32_t> v_;
};

}  // namespace cni::dsm
