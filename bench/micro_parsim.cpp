// Parallel-in-run simulation benchmark (DESIGN.md §12).
//
// Two 256-processor points, each run on the epoch scheduler at K = 1, 2, 4:
//
//   * pingpong — every node exchanges request/reply frames with a neighbour
//     (handler-serviced, no DSM), with a small deterministic per-round
//     compute jitter so event times decorrelate. All nodes are active the
//     whole run: this is the event-dense regime shard parallelism exists
//     for, and the headline point BENCH_parsim.json pins.
//   * jacobi — a fig04-class DSM point (4 rows per node). Its inter-barrier
//     fault storms parallelize, but the per-iteration barrier serializes
//     through node 0, so its event-parallelism stays near 1 — recorded as
//     the honest bound for barrier-dominated applications.
//
// Each mode reports two speedup views:
//
//   * measured wall-clock (host-dependent: on a single-core host K > 1 buys
//     nothing and the epoch rendezvous costs a little);
//   * event-parallelism from the deterministic EpochStats — total events
//     divided by the critical path (the busiest shard's events summed over
//     epochs). This is the speedup an ideal K-core host can approach and is
//     byte-identical on every machine, which is why BENCH_parsim.json pins
//     it alongside the local wall measurement (context block says how many
//     CPUs the wall numbers had to work with).
//
// The binary also cross-checks the headline determinism claim: the simulated
// elapsed cycles must be identical for every K.
//
// Usage: micro_parsim [--json] [--fast] [--procs=N] [--n=N] [--iters=N]
//        [--rounds=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "nic/wire.hpp"
#include "sim/channel.hpp"
#include "sim/shard_profiler.hpp"
#include "util/check.hpp"

namespace {

/// One benchmark configuration: a shard count.
struct ModeSpec {
  const char* name;
  std::uint32_t shards;
};

constexpr ModeSpec kModes[] = {{"k1", 1}, {"k2", 2}, {"k4", 4}};

struct ModeResult {
  std::string name;
  std::uint32_t shards = 0;
  double wall_ms = 0;
  std::uint64_t elapsed_cycles = 0;
  cni::sim::EpochStats stats;
  std::vector<cni::sim::ShardProfile> profile;
};

cni::cluster::SimParams mode_params(const ModeSpec& spec, std::uint32_t processors) {
  cni::cluster::SimParams params =
      cni::apps::make_params(cni::cluster::BoardKind::kCni, processors);
  params.fabric.switch_ports = processors;
  params.sim_shards = spec.shards;
  return params;
}

ModeResult run_jacobi_mode(const ModeSpec& spec, std::uint32_t processors,
                           const cni::apps::JacobiConfig& cfg) {
  const cni::cluster::SimParams params = mode_params(spec, processors);
  cni::sim::ShardProfiler prof;
  const auto t0 = std::chrono::steady_clock::now();
  const cni::apps::RunResult r =
      cni::apps::run_jacobi_profiled(params, cfg, &prof);
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult m;
  m.name = spec.name;
  m.shards = spec.shards;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.elapsed_cycles = r.elapsed_cycles;
  m.stats = r.parsim;
  if (prof.enabled()) m.profile = prof.profiles();
  return m;
}

constexpr cni::nic::MsgType kPing = cni::nic::kTypeHandlerBase + 60;
constexpr cni::nic::MsgType kPong = cni::nic::kTypeAppBase + 60;

ModeResult run_pingpong_mode(const ModeSpec& spec, std::uint32_t processors,
                             std::uint32_t rounds) {
  using namespace cni;
  CNI_CHECK(processors % 2 == 0);
  cluster::Cluster cl(mode_params(spec, processors));
  sim::ShardProfiler prof;
  cl.set_shard_profiler(&prof);

  // Request service on every board: bump a header field, reply. On a CNI
  // board this runs on the network processor, so the whole exchange is
  // NIC-to-NIC traffic — exactly the cross-node event stream the fabric's
  // lookahead governs.
  for (std::uint32_t n = 0; n < processors; ++n) {
    cl.node(n).board().install_handler(
        kPing,
        [&cl, n](nic::NicBoard::RxContext& ctx, const atm::Frame& f) {
          ctx.charge(120);
          const nic::MsgHeader in = f.header<nic::MsgHeader>();
          nic::MsgHeader h;
          h.type = kPong;
          h.src_node = n;
          h.seq = cl.node(n).board().next_seq();
          h.aux = in.aux + 1;
          ctx.send(atm::Frame::make(n, in.src_node, 1, h), {});
        },
        /*code_bytes=*/2048);
  }
  std::vector<std::unique_ptr<sim::SimChannel<atm::Frame>>> inboxes(processors);
  for (std::uint32_t n = 0; n < processors; ++n) {
    inboxes[n] = std::make_unique<sim::SimChannel<atm::Frame>>();
    cl.node(n).board().bind_channel(kPong, inboxes[n].get());
  }

  const auto t0 = std::chrono::steady_clock::now();
  cl.run([&](std::size_t i, sim::SimThread& t) {
    const auto self = static_cast<std::uint32_t>(i);
    const std::uint32_t partner = self ^ 1u;
    for (std::uint32_t k = 0; k < rounds; ++k) {
      // Deterministic per-(node, round) jitter: decorrelates the round-trip
      // phases so the fabric sees a steady mixed event stream instead of a
      // lock-step convoy.
      cl.node(i).cpu().compute(500 + (self * 2654435761u + k * 40503u) % 4096);
      cl.node(i).cpu().sync(t);
      nic::MsgHeader h;
      h.type = kPing;
      h.src_node = self;
      h.seq = cl.node(i).board().next_seq();
      h.aux = k;
      cl.node(i).board().send_from_host(t, atm::Frame::make(self, partner, 1, h), {});
      cl.node(i).board().receive_app(t, *inboxes[i]);
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult m;
  m.name = spec.name;
  m.shards = spec.shards;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.elapsed_cycles = cl.elapsed_cpu_cycles();
  m.stats = cl.epoch_stats();
  if (prof.enabled()) m.profile = prof.profiles();
  return m;
}

double event_parallelism(const ModeResult& m) {
  return m.stats.critical_path_events == 0
             ? 1.0
             : static_cast<double>(m.stats.events_total) /
                   static_cast<double>(m.stats.critical_path_events);
}

struct Point {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> config;
  std::vector<ModeResult> modes;

  /// Baseline for wall_vs_k1: the k1 mode when present (always, in an
  /// unfiltered run), otherwise whatever ran first.
  [[nodiscard]] const ModeResult& baseline() const {
    for (const ModeResult& m : modes) {
      if (m.name == "k1") return m;
    }
    return modes.front();
  }

  /// Runs must agree exactly, whatever K.
  void check_determinism() const {
    for (const ModeResult& m : modes) {
      CNI_CHECK_MSG(m.elapsed_cycles == modes.front().elapsed_cycles,
                    "runs diverged across K");
    }
  }
};

/// Per-shard wall-time phase breakdown (ms). Like wall_ms this is host
/// telemetry, not simulation output — BENCH_parsim consumers read the
/// *shape* (who waited on whom), not the magnitudes.
std::string shard_profile_json(const ModeResult& m) {
  std::string out = "[";
  for (std::size_t s = 0; s < m.profile.size(); ++s) {
    const cni::sim::ShardProfile& p = m.profile[s];
    if (s != 0) out += ", ";
    char buf[256];
    std::snprintf(buf, sizeof buf, "{\"shard\": %zu", s);
    out += buf;
    for (std::size_t ph = 0; ph < cni::sim::kShardPhaseCount; ++ph) {
      std::snprintf(buf, sizeof buf, ", \"%s_ms\": %.2f",
                    cni::sim::shard_phase_name(static_cast<cni::sim::ShardPhase>(ph)),
                    static_cast<double>(p.ns[ph]) / 1e6);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, ", \"transitions\": %llu}",
                  static_cast<unsigned long long>(p.transitions));
    out += buf;
  }
  out += ']';
  return out;
}

/// wall_vs_k1 is only an honest speedup when the host actually ran the shard
/// threads in parallel. On a core-starved host the ratio measures scheduler
/// thrash, not the engine — emit null so downstream tooling can't quote it.
std::string speedup_or_null(double ratio, bool cores_limited) {
  if (cores_limited) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", ratio);
  return buf;
}

void print_json(const std::vector<Point>& points) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("{\n  \"points\": {\n");
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const Point& p = points[pi];
    std::printf("    \"%s\": {\n", p.name.c_str());
    for (const auto& [key, value] : p.config) {
      std::printf("      \"%s\": %llu,\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    }
    std::printf("      \"num_cpus\": %u,\n", hw);
    std::printf("      \"modes\": {\n");
    const ModeResult& k1 = p.baseline();
    for (std::size_t i = 0; i < p.modes.size(); ++i) {
      const ModeResult& m = p.modes[i];
      // cores_limited: the wall number was taken with fewer host cores than
      // shard threads, so it understates what a wide host would measure.
      const bool cores_limited = hw < m.shards;
      std::printf(
          "        \"%s\": {\"wall_ms\": %.2f, \"elapsed_cycles\": %llu, "
          "\"epochs\": %llu, \"events_total\": %llu, "
          "\"critical_path_events\": %llu, \"fused_epochs\": %llu, "
          "\"barriers\": %llu, \"event_parallelism\": %.2f, "
          "\"wall_vs_k1\": %s, \"cores_limited\": %s, "
          "\"shard_profile\": %s}%s\n",
          m.name.c_str(), m.wall_ms,
          static_cast<unsigned long long>(m.elapsed_cycles),
          static_cast<unsigned long long>(m.stats.epochs),
          static_cast<unsigned long long>(m.stats.events_total),
          static_cast<unsigned long long>(m.stats.critical_path_events),
          static_cast<unsigned long long>(m.stats.fused_epochs),
          static_cast<unsigned long long>(m.stats.barriers), event_parallelism(m),
          speedup_or_null(k1.wall_ms / m.wall_ms, cores_limited).c_str(),
          cores_limited ? "true" : "false", shard_profile_json(m).c_str(),
          i + 1 < p.modes.size() ? "," : "");
    }
    std::printf("      }\n    }%s\n", pi + 1 < points.size() ? "," : "");
  }
  std::printf("  }\n}\n");
}

void print_table(const Point& p) {
  std::printf("\n%s (", p.name.c_str());
  for (std::size_t i = 0; i < p.config.size(); ++i) {
    std::printf("%s%s=%llu", i != 0 ? ", " : "", p.config[i].first.c_str(),
                static_cast<unsigned long long>(p.config[i].second));
  }
  std::printf(")\n%-10s %12s %16s %10s %10s %18s %12s\n", "mode", "wall_ms",
              "elapsed_cycles", "epochs", "barriers", "event_parallelism",
              "wall_vs_k1");
  const ModeResult& k1 = p.baseline();
  const unsigned hw = std::thread::hardware_concurrency();
  bool any_limited = false;
  for (const ModeResult& m : p.modes) {
    const bool cores_limited = hw < m.shards;
    char speedup[32];
    if (cores_limited) {
      std::snprintf(speedup, sizeof speedup, "n/a*");
      any_limited = true;
    } else {
      std::snprintf(speedup, sizeof speedup, "%.2f", k1.wall_ms / m.wall_ms);
    }
    std::printf("%-10s %12.2f %16llu %10llu %10llu %18.2f %12s\n",
                m.name.c_str(), m.wall_ms,
                static_cast<unsigned long long>(m.elapsed_cycles),
                static_cast<unsigned long long>(m.stats.epochs),
                static_cast<unsigned long long>(m.stats.barriers),
                event_parallelism(m), speedup);
  }
  if (any_limited) {
    std::printf("  * cores_limited: host has %u core(s), fewer than the shard "
                "count — wall clock measures thread thrash, not speedup\n",
                hw);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool fast = cni::bench::fast_mode();
  std::uint32_t procs_arg = 0;
  std::uint32_t n_arg = 0;
  std::uint32_t iters_arg = 0;
  std::uint32_t rounds_arg = 0;
  const char* point_filter = nullptr;
  const char* mode_filter = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
    if (std::strncmp(argv[i], "--point=", 8) == 0) point_filter = argv[i] + 8;
    if (std::strncmp(argv[i], "--modes=", 8) == 0) mode_filter = argv[i] + 8;
    if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    }
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 4));
    }
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    }
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds_arg = static_cast<std::uint32_t>(std::atoi(argv[i] + 9));
    }
  }

  // Full-size defaults: pingpong runs long enough (~1s+ per mode) that wall
  // numbers average over scheduler noise; jacobi needs few iterations — its
  // event-parallelism is iteration-invariant and its walls are dominated by
  // per-epoch rendezvous, so more iterations only repeat the same message.
  const std::uint32_t processors = procs_arg != 0 ? procs_arg : (fast ? 64 : 256);
  const std::uint32_t rounds = rounds_arg != 0 ? rounds_arg : (fast ? 5 : 200);
  cni::apps::JacobiConfig cfg;
  // Several rows per node: the inter-barrier phases (stencil compute plus
  // the boundary-page fault storm) carry concurrently active nodes; the
  // per-iteration barrier is inherently serial at node 0.
  cfg.n = n_arg != 0 ? n_arg : 4 * processors;
  cfg.iterations = iters_arg != 0 ? iters_arg : (fast ? 3 : 5);

  std::vector<Point> points;

  // --point=/--modes= narrow a run for profiling or A/B timing; the pinned
  // BENCH_parsim.json snapshot always comes from an unfiltered run.
  const auto point_wanted = [&](const char* name) {
    return point_filter == nullptr || std::strcmp(point_filter, name) == 0;
  };
  const auto mode_wanted = [&](const ModeSpec& spec) {
    if (mode_filter == nullptr) return true;
    const char* hit = std::strstr(mode_filter, spec.name);
    if (hit == nullptr) return false;
    const char end = hit[std::strlen(spec.name)];
    return (hit == mode_filter || hit[-1] == ',') && (end == '\0' || end == ',');
  };

  // All modes of a point share one process, and the first run pays every
  // first-touch page fault while later runs reuse warm allocator arenas —
  // tens of seconds of pure memory-system bias at the full jacobi size. One
  // untimed warm-up run per point pays that cost before anything is timed.
  constexpr ModeSpec kWarmup{"warmup", 1};

  if (point_wanted("pingpong")) {
    Point ping;
    ping.name = "pingpong";
    ping.config = {{"processors", processors}, {"rounds", rounds}};
    run_pingpong_mode(kWarmup, processors, rounds);
    for (const ModeSpec& spec : kModes) {
      if (mode_wanted(spec)) ping.modes.push_back(run_pingpong_mode(spec, processors, rounds));
    }
    ping.check_determinism();
    if (!ping.modes.empty()) points.push_back(std::move(ping));
  }

  if (point_wanted("jacobi")) {
    Point jac;
    jac.name = "jacobi";
    jac.config = {{"processors", processors}, {"n", cfg.n}, {"iterations", cfg.iterations}};
    run_jacobi_mode(kWarmup, processors, cfg);
    for (const ModeSpec& spec : kModes) {
      if (mode_wanted(spec)) jac.modes.push_back(run_jacobi_mode(spec, processors, cfg));
    }
    jac.check_determinism();
    if (!jac.modes.empty()) points.push_back(std::move(jac));
  }

  if (json) {
    print_json(points);
  } else {
    std::printf("micro_parsim: epoch scheduler at K = 1, 2, 4, %u processors\n",
                processors);
    for (const Point& p : points) print_table(p);
    std::printf(
        "\nevent_parallelism = events_total / critical_path_events: the\n"
        "machine-independent speedup bound an ideal K-core host approaches.\n");
  }
  return 0;
}
