// Strict parsing of the counts that flags and environment variables carry.
//
// A malformed count must stop the binary that reads it: read as 0, it would
// mean "not given" and silently run the default (a sweep, a trace capacity).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

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

}  // namespace cni::util
