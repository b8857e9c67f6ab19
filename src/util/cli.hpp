// Strict parsing of the counts that flags carry and of the CNI_* environment
// variables.
//
// A malformed value must stop the binary that reads it: read as 0 or as
// unset, it would silently run the default (a sweep, a job count, a trace
// capacity, a collective mode).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace cni::util {

/// A count: decimal digits only (no sign, space or suffix) of a value that
/// fits a u32; nullopt for anything else, the empty string included.
inline std::optional<std::uint32_t> parse_u32(std::string_view text) {
  std::uint32_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return v;
}

/// Environment variable `name` read through `parse` (a `const char*` to an
/// std::optional), or nullopt when it is unset. A value `parse` rejects
/// fails a CNI_CHECK naming the variable and `accepts`, what it takes.
template <typename Parse>
auto env_value(const char* name, const char* accepts, Parse parse) -> decltype(parse(name)) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  auto v = parse(text);
  if (!v) {
    const std::string msg = std::string(name) + " must be " + accepts + ", not '" + text + "'";
    CNI_CHECK_MSG(v, msg.c_str());
  }
  return v;
}

/// A count in [lo, hi] from environment variable `name`; nullopt when unset.
inline std::optional<std::uint32_t> env_count(
    const char* name, std::uint32_t lo,
    std::uint32_t hi = std::numeric_limits<std::uint32_t>::max()) {
  const std::string accepts =
      hi == std::numeric_limits<std::uint32_t>::max()
          ? "a count >= " + std::to_string(lo)
          : "a count from " + std::to_string(lo) + " to " + std::to_string(hi);
  return env_value(name, accepts.c_str(), [lo, hi](const char* text) {
    const auto v = parse_u32(text);
    return v && *v >= lo && *v <= hi ? v : std::nullopt;
  });
}

/// A switch from environment variable `name`: exactly `0` or `1`; nullopt
/// when unset.
inline std::optional<bool> env_flag(const char* name) {
  return env_value(name, "0 or 1", [](std::string_view text) -> std::optional<bool> {
    if (text == "0") return false;
    if (text == "1") return true;
    return std::nullopt;
  });
}

}  // namespace cni::util
