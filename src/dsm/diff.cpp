#include "dsm/diff.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace cni::dsm {
namespace {

std::uint64_t load_word(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Streaming run builder: feed ascending differing byte positions, collect
/// (offset, arena_off, len) runs obeying the kJoinGap merge rule. Run bytes
/// are laid out in the arena from `arena_start` on.
class RunBuilder {
 public:
  RunBuilder(std::vector<Diff::Run>& runs, std::uint64_t arena_start)
      : runs_(runs), arena_end_(arena_start) {}

  void diff_at(std::size_t pos) {
    if (open_ && pos - last_ <= kJoinGap) {
      last_ = pos;
      return;
    }
    flush();
    open_ = true;
    start_ = last_ = pos;
  }

  /// Closes the trailing run; returns the arena offset past the last run.
  std::uint64_t finish() {
    flush();
    return arena_end_;
  }

 private:
  void flush() {
    if (!open_) return;
    const auto len = static_cast<std::uint32_t>(last_ - start_ + 1);
    runs_.push_back(Diff::Run{static_cast<std::uint32_t>(start_),
                              static_cast<std::uint32_t>(arena_end_), len});
    arena_end_ += len;
    open_ = false;
  }

  std::vector<Diff::Run>& runs_;
  std::uint64_t arena_end_;
  std::size_t start_ = 0;
  std::size_t last_ = 0;
  bool open_ = false;
};

}  // namespace

Diff Diff::deserialize(ByteReader& r) {
  // skip() validates every count before anything is allocated, and finds
  // where the record ends.
  const std::span<const std::byte> rest = r.rest();
  (void)skip(r);
  const std::span<const std::byte> record = rest.first(rest.size() - r.remaining());
  Diff d;
  if (r.backing()) {
    // Zero-copy: the clock and the runs alias the received frame's payload,
    // pinned by the shared arena reference for as long as the diff lives.
    d.arena = r.backing();
  } else {
    // Bare-span reader (tests, in-memory round-trips): the storage behind the
    // span has no refcount to share, so copy the record into a fresh arena.
    d.arena = util::Buf::alloc(record.size());
    std::copy(record.begin(), record.end(), d.arena.data());
  }
  const std::byte* at = r.backing() ? record.data() : d.arena.data();
  ByteReader in(std::span<const std::byte>(at, record.size()));
  d.writer = in.u32();
  d.vc = in.clock_view();
  const std::uint32_t n = in.u32();
  d.runs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t offset = in.u32();
    const std::span<const std::byte> b = in.bytes();
    d.runs.push_back(Run{offset, static_cast<std::uint32_t>(b.data() - d.arena.data()),
                         static_cast<std::uint32_t>(b.size())});
  }
  return d;
}

std::uint64_t Diff::skip(ByteReader& r) {
  (void)r.u32();
  (void)r.clock_view();
  const std::uint32_t n = r.u32();  // a count past the bytes left throws below
  std::uint64_t bytes = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    (void)r.u32();
    bytes += r.bytes().size();
  }
  return bytes;
}

Diff make_diff(std::uint32_t writer, ClockView vc,
               std::span<const std::byte> twin, std::span<const std::byte> current) {
  CNI_CHECK(twin.size() == current.size());
  Diff d;
  d.writer = writer;

  const std::size_t n = twin.size();
  RunBuilder builder(d.runs, vc.bytes().size());

  // Word-wise scan: XOR 64-bit words and only inspect bytes inside words
  // that differ. countr_zero maps the lowest set XOR bit to its byte lane on
  // little-endian targets; other targets fall back to a byte compare inside
  // the (rare) differing word — same positions either way.
  const std::size_t words = n / 8;
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t x = load_word(twin.data() + wi * 8) ^ load_word(current.data() + wi * 8);
    if (x == 0) continue;
    const std::size_t base = wi * 8;
    if constexpr (std::endian::native == std::endian::little) {
      while (x != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(x)) >> 3;
        builder.diff_at(base + lane);
        x &= ~(std::uint64_t{0xFF} << (lane * 8));
      }
    } else {
      for (unsigned k = 0; k < 8; ++k) {
        if (twin[base + k] != current[base + k]) builder.diff_at(base + k);
      }
    }
  }
  for (std::size_t i = words * 8; i < n; ++i) {
    if (twin[i] != current[i]) builder.diff_at(i);
  }

  // One block: the clock, then the run bytes.
  d.arena = util::Buf::alloc(builder.finish());
  std::byte* out = d.arena.data();
  std::copy(vc.bytes().begin(), vc.bytes().end(), out);
  d.vc = ClockView(out, vc.size());
  for (const Diff::Run& r : d.runs) {
    std::memcpy(out + r.arena_off, current.data() + r.offset, r.len);
  }
  return d;
}

void apply_diff(const Diff& d, std::span<std::byte> page) {
  for (const Diff::Run& r : d.runs) {
    CNI_CHECK_MSG(r.offset + r.len <= page.size(), "diff run outside the page");
    std::memcpy(page.data() + r.offset, d.arena.data() + r.arena_off, r.len);
  }
}

void sort_for_apply(std::vector<Diff>& diffs) {
  const std::size_t nodes = diffs.empty() ? 0 : diffs.front().vc.size();
  std::vector<std::pair<std::uint64_t, Diff>> keyed;
  keyed.reserve(diffs.size());
  for (Diff& d : diffs) {
    CNI_CHECK_EQ(d.vc.size(), nodes);
    keyed.emplace_back(std::accumulate(d.vc.begin(), d.vc.end(), std::uint64_t{0}),
                       std::move(d));
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return std::pair(a.first, a.second.writer) < std::pair(b.first, b.second.writer);
  });
  for (std::size_t i = 0; i < keyed.size(); ++i) diffs[i] = std::move(keyed[i].second);
}

}  // namespace cni::dsm
