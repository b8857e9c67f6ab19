#include "obs/options.hpp"

#include <atomic>

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
  p.trace = util::env_flag("CNI_TRACE").value_or(false);
  if (const auto v = util::env_count("CNI_TRACE_CAPACITY", 1)) p.capacity = *v;
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
