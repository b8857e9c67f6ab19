#include "obs/options.hpp"

#include <atomic>
#include <cstdlib>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace cni::obs {
namespace {

// Packed {initialized, trace, capacity} so reads are a single atomic load.
// Writers (env init, Reporter construction) run before sweep threads spawn;
// the atomic keeps the cross-thread *reads* well-defined under TSan.
struct PackedOptions {
  bool init = false;
  bool trace = false;
  std::uint32_t capacity = 4096;
};
std::atomic<PackedOptions> g_defaults{PackedOptions{}};

PackedOptions from_env() {
  PackedOptions p;
  p.init = true;
  const char* trace = std::getenv("CNI_TRACE");
  p.trace = trace != nullptr && trace[0] != '\0' && trace[0] != '0';
  if (const char* cap = std::getenv("CNI_TRACE_CAPACITY"); cap != nullptr) {
    const auto v = util::parse_u32(cap);
    CNI_CHECK_MSG(v && *v > 0, "CNI_TRACE_CAPACITY must be a record count >= 1");
    p.capacity = *v;
  }
  return p;
}

}  // namespace

Options default_options() {
  PackedOptions p = g_defaults.load(std::memory_order_acquire);
  if (!p.init) {
    p = from_env();
    g_defaults.store(p, std::memory_order_release);
  }
  Options o;
  o.trace = p.trace;
  o.trace_capacity = p.capacity;
  return o;
}

void set_default_options(const Options& opts) {
  PackedOptions p;
  p.init = true;
  p.trace = opts.trace;
  p.capacity = opts.trace_capacity;
  g_defaults.store(p, std::memory_order_release);
}

}  // namespace cni::obs
