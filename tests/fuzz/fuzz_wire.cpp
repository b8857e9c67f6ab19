// Fuzz harness for the DSM wire formats and the diff engine — the two spots
// where the simulator decodes bytes it did not produce in the same call
// chain (frames cross the simulated wire as real serialized payloads).
//
// Two targets, selected by the input's first byte:
//
//   wire decode   Interval::deserialize / Diff::deserialize, the bodies
//                 that carry them (an interval set as in a lock grant, a
//                 diff reply) and raw ByteReader primitives over arbitrary
//                 bytes. Malformed input must throw WireError (recoverable,
//                 bounds checked *before* any count-driven allocation) —
//                 never crash, abort via CNI_CHECK, or allocate unboundedly.
//                 Each input is decoded both ways production can: from a
//                 bare span (the decoder copies what it keeps) and from a
//                 util::Buf holding the same bytes, as a received frame does
//                 (the decoder aliases it). Both must accept or reject
//                 alike and re-serialize to identical bytes; every view the
//                 aliasing decode hands out must lie inside its buffer; and
//                 the re-serialized image must decode to itself again.
//
//   diff property make_diff/apply_diff as an algebraic pair: for arbitrary
//                 (twin, current) page images, applying the diff onto a copy
//                 of the twin must reconstruct current exactly, and the diff
//                 must survive a serialize/deserialize round trip unchanged.
//
// Built two ways (tests/CMakeLists.txt):
//   - CNI_FUZZ=ON + Clang: a libFuzzer binary (fuzz_wire) for open-ended
//     runs; CI gives it a five-minute smoke budget.
//   - always: a corpus-replay binary (fuzz_wire_replay) with a plain main()
//     that runs every file in tests/fuzz/corpus through the same entry
//     point, so the checked-in findings regress under any compiler, in
//     tier-1 ctest, with no fuzzer runtime.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "dsm/diff.hpp"
#include "dsm/interval.hpp"
#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "util/buf_pool.hpp"
#include "util/check.hpp"

namespace {

using cni::dsm::ByteReader;
using cni::dsm::ByteWriter;
using cni::dsm::Diff;
using cni::dsm::Interval;
using cni::dsm::VectorClock;
using cni::dsm::WireError;
namespace util = cni::util;

std::span<const std::byte> as_bytes(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const std::byte*>(data), size};
}

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// What one decode produced: the re-serialized image of everything it
/// accepted, and every byte view it read in place.
struct Decoded {
  ByteWriter out;
  std::vector<std::span<const std::byte>> views;

  void interval(const Interval& iv) {
    iv.serialize(out);
    views.push_back(iv.wire);
    views.push_back(iv.vc().bytes());
    views.push_back(iv.pages().bytes());
  }
  void diff(const Diff& d) {
    d.serialize(out);
    views.push_back(d.vc.bytes());
    for (const Diff::Run& run : d.runs) views.push_back(d.run_bytes(run));
  }
};
using Decoder = void (*)(ByteReader&, Decoded&);

void one_interval(ByteReader& r, Decoded& d) { d.interval(Interval::deserialize(r)); }
void one_diff(ByteReader& r, Decoded& d) { d.diff(Diff::deserialize(r)); }

/// A lock grant / barrier release body: clock, count, interval records.
void interval_set(ByteReader& r, Decoded& d) {
  const cni::dsm::ClockView vc = r.clock_view();
  d.out.clock(vc);
  d.views.push_back(vc.bytes());
  const std::uint32_t n = r.u32();
  d.out.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) d.interval(Interval::deserialize(r));
}

/// A diff reply body: page, count, diffs.
void diff_reply(ByteReader& r, Decoded& d) {
  d.out.u64(r.u64());
  const std::uint32_t n = r.u32();
  d.out.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) d.diff(Diff::deserialize(r));
}

std::vector<std::byte> copy_of(std::span<const std::byte> b) {
  return {b.begin(), b.end()};
}

/// Runs `decode` over `in` from a bare span and from a Buf holding the same
/// bytes, and checks the two agree (see the file comment).
void decode_both_ways(std::span<const std::byte> in, Decoder decode) {
  std::optional<std::vector<std::byte>> copied;
  try {
    ByteReader r(in);
    Decoded d;
    decode(r, d);
    copied = copy_of(d.out.data());
  } catch (const WireError&) {
    // malformed input: the one acceptable outcome
  }
  util::Buf frame = util::Buf::alloc(in.size());
  if (!in.empty()) std::memcpy(frame.data(), in.data(), in.size());
  std::optional<std::vector<std::byte>> aliased;
  try {
    ByteReader r(frame, 0);
    Decoded d;
    decode(r, d);
    const std::byte* lo = frame.data();
    const std::byte* hi = lo + frame.size();
    for (const std::span<const std::byte> v : d.views) {
      CNI_CHECK_MSG(v.data() >= lo && v.data() + v.size() <= hi,
                    "aliasing decode hands out a view outside its buffer");
    }
    aliased = copy_of(d.out.data());
  } catch (const WireError&) {
  }
  CNI_CHECK_MSG(copied.has_value() == aliased.has_value(),
                "copying and aliasing decodes disagree on validity");
  if (!copied) return;
  CNI_CHECK_MSG(same_bytes(*copied, *aliased),
                "copying and aliasing decodes re-serialize differently");
  ByteReader again(*copied);
  Decoded d;
  decode(again, d);
  CNI_CHECK_MSG(same_bytes(d.out.data(), *copied), "wire image not round-trip stable");
}

/// Decoders must treat arbitrary bytes as either a value or a WireError —
/// nothing else.
void fuzz_wire_decode(std::span<const std::byte> in) {
  for (const Decoder decode : {one_interval, one_diff, interval_set, diff_reply}) {
    decode_both_ways(in, decode);
  }
  try {
    ByteReader r(in);
    while (!r.done()) {
      (void)r.bytes();
      (void)r.clock();
    }
  } catch (const WireError&) {
  }
}

/// make_diff/apply_diff as an algebra: diff(twin -> current) applied to the
/// twin reconstructs current, byte for byte, for any pair of images; and the
/// diff survives the wire unchanged.
void fuzz_diff_property(std::span<const std::byte> in) {
  // Split the input into two equal-length page images (odd byte dropped).
  const std::size_t page = in.size() / 2;
  const std::span<const std::byte> twin = in.first(page);
  const std::span<const std::byte> current = in.subspan(page, page);

  const Diff d = cni::dsm::make_diff(3, VectorClock(4), twin, current);
  std::vector<std::byte> image(twin.begin(), twin.end());
  cni::dsm::apply_diff(d, image);
  CNI_CHECK_MSG(same_bytes(image, current), "apply(make_diff) != current");

  ByteWriter w;
  d.serialize(w);
  ByteReader r(w.data());
  const Diff back = Diff::deserialize(r);
  std::vector<std::byte> image2(twin.begin(), twin.end());
  cni::dsm::apply_diff(back, image2);
  CNI_CHECK_MSG(same_bytes(image2, current),
                "diff does not survive the wire");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::span<const std::byte> payload = as_bytes(data + 1, size - 1);
  if ((data[0] & 1) == 0) {
    fuzz_wire_decode(payload);
  } else {
    fuzz_diff_property(payload);
  }
  return 0;
}

#ifdef CNI_FUZZ_REPLAY_MAIN
// Corpus replay: no fuzzer runtime needed, so the checked-in corpus is a
// tier-1 regression suite under any compiler (ctest fuzz_wire_corpus).
#include <cstdio>
#include <fstream>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-file>...\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    std::ifstream f(argv[i], std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("fuzz_wire_replay: %d input(s) OK\n", argc - 1);
  return 0;
}
#endif
