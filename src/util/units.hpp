// Size and rate literals used throughout the simulator.
#pragma once

#include <cstdint>

namespace cni::util {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;

/// Bits per second for an STS-12 / OC-12 ATM link.
inline constexpr std::uint64_t kSts12BitsPerSec = 622'080'000;

constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v * kKiB; }
constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v * kMiB; }

/// Integer ceiling division; used for cell counts, page counts, line counts.
template <typename T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

/// Rounds `v` up to a multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace cni::util
