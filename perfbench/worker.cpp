// One pass of one benchmark workload (see README.md for the workloads).
//
//   perfbench_worker --workload jacobi|water|collectives --seed N
//                    [--run N] [--trace 0|1]
//   perfbench_worker --workload calibrate     (times the host-speed kernel)
//
// A pass runs every simulation of the workload once, from cluster
// construction to extracted results, on the calling thread. It prints one
// JSON object on stdout: the pass's host times, what each simulation
// answered next to what the reference says it should have, the simulated
// counters of every simulation and, with --trace 1, the spans recorded
// around each call into the simulator. Judging the answers is run.py's job;
// this program only measures and reports.
//
// The worker calls only the simulator's public entry points (apps, cluster,
// dsm, sim, obs) and reads the counters they already expose.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "apps/water.hpp"
#include "atm/topology.hpp"
#include "cluster/cluster.hpp"
#include "dsm/context.hpp"
#include "dsm/system.hpp"
#include "util/rng.hpp"

namespace {

using namespace cni;
using Clock = std::chrono::steady_clock;

// ---- Workload sizes --------------------------------------------------------
// Jacobi runs Figure 4's 1024x1024 input and Water Figure 7's costliest point
// in full: Water's second step, with the first step's diff history behind
// it, is three quarters of its host time. Jacobi's iterations (Figure 4 runs
// 20) and the collective rounds are trimmed so a pass takes one to three
// seconds: host speed on a shared machine wanders from pass to pass, and a
// run's median settles only over many passes. run.py pools node 0's round
// intervals over the traced passes, so the p90 still has ten samples beyond
// it.
constexpr std::uint32_t kJacobiN = 1024;
constexpr std::uint32_t kJacobiIterations = 4;
constexpr std::uint32_t kJacobiFlopsPerPoint = 16;
constexpr std::uint32_t kJacobiProcs = 16;
constexpr std::uint32_t kWaterMolecules = 216;
constexpr std::uint32_t kWaterSteps = 2;
constexpr std::uint32_t kWaterProcs = 32;
constexpr std::uint32_t kCollNodes = 1024;
constexpr std::uint32_t kCollRounds = 56;
/// Setup-probe repetitions per pass (jacobi/water): one probe builds two
/// small clusters in milliseconds, too short to time once. The first
/// probes after the simulations run up to twice as slow while the heap
/// settles, so that many go untimed.
constexpr int kSetupReps = 21;
constexpr int kSetupWarmup = 10;
/// Host-speed kernel, about 0.4 s on a 4-core VM in four parts of similar
/// length: random updates of a fresh 64 MB array, a sweep over a fresh
/// 96 MB array, dependent loads around an 8 MB cycle, integer hashing.
constexpr std::size_t kCalibWords = std::size_t{8} << 20;
constexpr std::uint64_t kCalibUpdates = 4'000'000;
constexpr std::size_t kCalibSweepWords = std::size_t{12} << 20;
constexpr std::uint32_t kCalibChaseSlots = 2u << 20;
constexpr std::uint64_t kCalibChaseSteps = 600'000;
constexpr std::uint64_t kCalibHashes = 40'000'000;

// ---- Spans -----------------------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  ///< index into the span list, -1 for a root
};

/// In-memory span recorder. Off: every call is a no-op, so the untraced
/// pass pays one branch per call into the simulator.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer& tr, const char* name) : tr_(tr), id_(tr.open(name)) {}
  ~Scope() { tr_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
  int id_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- JSON output -----------------------------------------------------------

/// Name -> JSON literal, in emission order.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}
std::string object(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    out += (i ? ", " : "") + str(f[i].first) + ": " + f[i].second;
  }
  return out + "}";
}
std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

// ---- Simulated counters ----------------------------------------------------

/// The deterministic counters of one simulation, by layer. `r` carries what
/// every entry point exposes; the cluster-only counters (engine events and
/// fabric frames) are appended by the caller when it owns the cluster.
Fields sim_counters(const apps::RunResult& r) {
  const sim::NodeStats& t = r.totals;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  for (const obs::NodeSnapshot& n : r.snapshot.nodes) {
    for (const obs::HistSnapshot& h : n.hists) {
      if (h.name != "dsm.fault_latency_ps" || h.count == 0) continue;
      p50 = std::max(p50, h.p50);
      p99 = std::max(p99, h.p99);
    }
  }
  return {
      {"sim.elapsed_ps", num(static_cast<std::uint64_t>(r.elapsed))},
      {"cluster.compute_e9", num(r.compute_e9)},
      {"cluster.synch_overhead_e9", num(r.overhead_e9)},
      {"cluster.synch_delay_e9", num(r.delay_e9)},
      {"core.mcache_hit_pct", num(r.hit_ratio_pct)},
      {"core.mcache_evictions", num(t.mcache_evictions)},
      {"core.mcache_snoop_updates", num(t.mcache_snoop_updates)},
      {"nic.messages_sent", num(t.messages_sent)},
      {"nic.cells_sent", num(t.cells_sent)},
      {"nic.dma_bytes", num(t.dma_bytes)},
      {"nic.host_interrupts", num(t.host_interrupts)},
      {"nic.host_polls", num(t.host_polls)},
      {"dsm.faults", num(t.read_faults + t.write_faults)},
      {"dsm.pages_fetched", num(t.pages_fetched)},
      {"dsm.diffs_applied", num(t.diffs_applied)},
      {"dsm.write_notices_received", num(t.write_notices_received)},
      {"dsm.lock_acquires", num(t.lock_acquires)},
      {"dsm.barriers", num(t.barriers)},
      {"dsm.fault_latency_p50_ps", num(p50)},
      {"dsm.fault_latency_p99_ps", num(p99)},
  };
}

/// The part of apps::run_app's extraction that needs the cluster, for the
/// workload that drives a cluster itself.
apps::RunResult extract(cluster::Cluster& cl, sim::SimTime elapsed, Tracer& tr) {
  apps::RunResult r;
  r.elapsed = elapsed;
  r.totals = cl.stats().total();
  {
    const Scope s(tr, "obs.snapshot");
    r.snapshot = cl.snapshot();
  }
  r.hit_ratio_pct = r.totals.tx_hit_ratio_pct();
  const double p = static_cast<double>(cl.size());
  r.compute_e9 = static_cast<double>(r.totals.compute_cycles) / p / 1e9;
  r.overhead_e9 = static_cast<double>(r.totals.synch_overhead_cycles) / p / 1e9;
  r.delay_e9 = static_cast<double>(r.totals.synch_delay_cycles) / p / 1e9;
  return r;
}

// ---- One simulation's record -------------------------------------------------

struct SimRecord {
  std::string board;
  std::uint64_t ops = 1;  ///< answers this simulation produced
  std::string error;      ///< exception text; empty when the run completed
  Fields answer;          ///< checksum/reference/rel_tol, or wrong (collectives)
  Fields counters;
};

std::string to_json(const SimRecord& s) {
  return object({{"board", str(s.board)},
                 {"ops", num(s.ops)},
                 {"error", str(s.error)},
                 {"answer", object(s.answer)},
                 {"counters", object(s.counters)}});
}

struct Pass {
  std::string workload;
  Fields config;
  double wall_s = 0;
  std::vector<double> setup_samples;
  bool sharded = false;
  std::uint32_t shards = 1;
  std::vector<SimRecord> sims;
  std::vector<double> round_end_s;  ///< node 0's host clock after each round
};

const char* board_name(cluster::BoardKind b) {
  return b == cluster::BoardKind::kCni ? "cni" : "standard";
}

constexpr cluster::BoardKind kBoards[] = {cluster::BoardKind::kCni,
                                          cluster::BoardKind::kStandard};

/// Builds and tears down the cluster + DSM system a run_* call would build
/// for `params`; returns the constructor time. Records the engine mode.
double setup_probe(const cluster::SimParams& params, Tracer& tr, Pass& pass) {
  const Scope s(tr, "setup.probe");
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<cluster::Cluster> cl;
  {
    const Scope c(tr, "cluster.build");
    cl = std::make_unique<cluster::Cluster>(params);
  }
  std::unique_ptr<dsm::DsmSystem> sys;
  {
    const Scope d(tr, "dsm.build");
    sys = std::make_unique<dsm::DsmSystem>(*cl);
  }
  const double built = seconds_since(t0);
  pass.sharded = cl->sharded();
  pass.shards = cl->shards();
  const Scope d(tr, "teardown");
  sys.reset();
  cl.reset();
  return built;
}

/// Jacobi and Water: each board once through the app's own entry point.
template <typename Config, typename RunFn, typename RefFn>
void run_app_pass(Pass& pass, const Config& cfg, std::uint32_t procs, double rel_tol,
                  RunFn run, RefFn reference, Tracer& tr) {
  const Clock::time_point t0 = Clock::now();
  for (const cluster::BoardKind board : kBoards) {
    SimRecord rec;
    rec.board = board_name(board);
    try {
      const Scope s(tr, board == cluster::BoardKind::kCni ? "apps.run_cni" : "apps.run_standard");
      double checksum = 0;
      const apps::RunResult r = run(apps::make_params(board, procs), cfg, &checksum);
      rec.counters = sim_counters(r);
      if (r.parsim.events_total != 0) {
        rec.counters.emplace_back("sim.events", num(r.parsim.events_total));
      }
      rec.answer = {{"checksum", num(checksum)}, {"rel_tol", num(rel_tol)}};
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    pass.sims.push_back(std::move(rec));
  }
  pass.wall_s = seconds_since(t0);

  {
    const Scope s(tr, "apps.verify");
    const double ref = reference(cfg);
    for (SimRecord& rec : pass.sims) rec.answer.emplace_back("reference", num(ref));
  }

  for (int rep = 0; rep < kSetupWarmup + kSetupReps; ++rep) {
    double t = 0;
    for (const cluster::BoardKind board : kBoards) {
      t += setup_probe(apps::make_params(board, procs), tr, pass);
    }
    if (rep >= kSetupWarmup) pass.setup_samples.push_back(t);
  }
}

void jacobi_pass(Pass& pass, Tracer& tr) {
  const apps::JacobiConfig cfg{kJacobiN, kJacobiIterations, kJacobiFlopsPerPoint};
  pass.config = {{"n", num(std::uint64_t{cfg.n})},
                 {"iterations", num(std::uint64_t{cfg.iterations})},
                 {"flops_cycles_per_point", num(std::uint64_t{cfg.flops_cycles_per_point})},
                 {"processors", num(std::uint64_t{kJacobiProcs})}};
  // Tolerance of tests/test_apps_integration.cpp.
  run_app_pass(pass, cfg, kJacobiProcs, 1e-12, apps::run_jacobi,
               apps::jacobi_reference_checksum, tr);
}

void water_pass(Pass& pass, Tracer& tr) {
  apps::WaterConfig cfg;
  cfg.molecules = kWaterMolecules;
  cfg.steps = kWaterSteps;
  pass.config = {{"molecules", num(std::uint64_t{cfg.molecules})},
                 {"steps", num(std::uint64_t{cfg.steps})},
                 {"processors", num(std::uint64_t{kWaterProcs})}};
  run_app_pass(pass, cfg, kWaterProcs, 1e-6, apps::run_water,
               apps::water_reference_checksum, tr);
}

/// 1024 nodes on the Clos fabric, CNI boards, NIC-resident collectives.
/// Each round is a barrier and a sum reduce of seed-drawn operands.
void collectives_pass(Pass& pass, std::uint64_t seed, Tracer& tr) {
  const std::uint32_t n = kCollNodes;
  const std::uint32_t rounds = kCollRounds;
  pass.config = {{"nodes", num(std::uint64_t{n})},
                 {"rounds", num(std::uint64_t{rounds})},
                 {"topology", str("clos")},
                 {"collective", str("nic")}};

  // Node i contributes base[r] + i in round r, so every node must receive
  // n * base[r] + n(n-1)/2 (mod 2^64). 48-bit bases keep the sum exact.
  std::vector<std::uint64_t> base(rounds);
  util::SplitMix64 rng(seed);
  for (std::uint64_t& b : base) b = rng.next() >> 16;

  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, n);
  params.fabric.switch_ports = n;
  params.fabric.topology = atm::TopologyKind::kClos;
  dsm::DsmParams dp;
  dp.collective = cluster::CollectiveMode::kNic;

  std::vector<std::uint64_t> got(std::size_t{n} * rounds, 0);
  SimRecord rec;
  rec.board = board_name(params.board);
  rec.ops = std::size_t{n} * rounds;

  const Clock::time_point t0 = Clock::now();
  try {
    std::unique_ptr<cluster::Cluster> cl;
    std::unique_ptr<dsm::DsmSystem> sys;
    {
      const Scope s(tr, "cluster.build");
      cl = std::make_unique<cluster::Cluster>(params);
    }
    {
      const Scope s(tr, "dsm.build");
      sys = std::make_unique<dsm::DsmSystem>(*cl, dp);
    }
    pass.setup_samples.push_back(seconds_since(t0));
    pass.sharded = cl->sharded();
    pass.shards = cl->shards();

    sim::SimTime elapsed = 0;
    {
      const Scope s(tr, "sim.run");
      elapsed = cl->run([&](std::size_t i, sim::SimThread& t) {
        dsm::DsmContext ctx(*sys, i, t);
        for (std::uint32_t r = 0; r < rounds; ++r) {
          ctx.barrier();
          got[i * rounds + r] = ctx.reduce_u64(dsm::ReduceOp::kSum, base[r] + i);
          if (i == 0 && tr.on()) pass.round_end_s.push_back(tr.now());
        }
      });
    }
    const apps::RunResult r = extract(*cl, elapsed, tr);
    rec.counters = sim_counters(r);
    rec.counters.emplace_back("sim.events", num(cl->sharded() ? cl->epoch_stats().events_total
                                                              : cl->engine().events_executed()));
    rec.counters.emplace_back("atm.frames_sent", num(cl->fabric().frames_sent()));
    rec.counters.emplace_back("atm.cells_sent", num(cl->fabric().cells_sent()));
    const Scope s(tr, "teardown");
    sys.reset();
    cl.reset();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  pass.wall_s = seconds_since(t0);

  {
    const Scope s(tr, "apps.verify");
    const std::uint64_t tri = std::uint64_t{n} * (n - 1) / 2;
    std::uint64_t wrong = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t r = 0; r < rounds; ++r) {
        if (got[std::size_t{i} * rounds + r] != n * base[r] + tri) ++wrong;
      }
    }
    rec.answer = {{"wrong", num(wrong)}};
  }
  pass.sims.push_back(std::move(rec));
}

/// Times a fixed kernel that uses none of the simulator. run.py runs it
/// between passes and scales host times by it, so a slower or busier host
/// does not read as a slower simulator. On a shared machine the speeds of
/// page faults, memory latency, memory bandwidth and the core itself wander
/// apart; the kernel takes some of each.
void calibrate() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t y = 7;
  const auto draw = [&y] {
    y = y * 6364136223846793005ULL + 1442695040888963407ULL;
    return y;
  };
  std::uint64_t acc = 0;
  {
    std::vector<std::uint64_t> words(kCalibWords, 1);
    for (std::uint64_t i = 0; i < kCalibUpdates; ++i) {
      const std::uint64_t r = draw();
      words[(r >> 20) & (kCalibWords - 1)] += r;
    }
    for (const std::uint64_t w : words) acc += w;
  }
  {
    std::vector<std::uint64_t> words(kCalibSweepWords, 1);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] += i;
    for (const std::uint64_t w : words) acc += w;
  }
  {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<std::uint32_t> next(kCalibChaseSlots);
    for (std::uint32_t i = 0; i < kCalibChaseSlots; ++i) next[i] = i;
    for (std::uint32_t i = kCalibChaseSlots - 1; i > 0; --i) {
      std::swap(next[i], next[(draw() >> 33) % i]);
    }
    std::uint32_t slot = 0;
    for (std::uint64_t i = 0; i < kCalibChaseSteps; ++i) slot = next[slot];
    acc += slot;
  }
  for (std::uint64_t i = 0; i < kCalibHashes; ++i) {
    std::uint64_t z = draw();
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc ^= z ^ (z >> 31);
  }
  const double took = seconds_since(t0);
  std::printf("%s\n", object({{"calib_s", num(took)}, {"sink", num(acc & 1)}}).c_str());
}

void print_pass(const Pass& pass, const Tracer& tr, long run_id) {
  std::vector<std::string> sims;
  for (const SimRecord& s : pass.sims) sims.push_back(to_json(s));
  std::vector<std::string> setup;
  for (const double v : pass.setup_samples) setup.push_back(num(v));
  std::vector<std::string> spans;
  for (const Span& s : tr.spans()) {
    spans.push_back(object({{"name", str(s.name)},
                            {"start", num(s.start_s)},
                            {"end", num(s.end_s)},
                            {"parent", std::to_string(s.parent)},
                            {"run", std::to_string(run_id)}}));
  }
  std::vector<std::string> rounds;
  for (const double v : pass.round_end_s) rounds.push_back(num(v));
  std::printf("%s\n",
              object({{"workload", str(pass.workload)},
                      {"config", object(pass.config)},
                      {"engine", object({{"sharded", pass.sharded ? "true" : "false"},
                                         {"shards", num(std::uint64_t{pass.shards})}})},
                      {"wall_s", num(pass.wall_s)},
                      {"setup_samples", array(setup)},
                      {"sims", array(sims)},
                      {"spans", array(spans)},
                      {"round_end_s", array(rounds)}})
                  .c_str());
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_worker --workload jacobi|water|collectives|calibrate "
               "--seed N [--run N] [--trace 0|1]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  long run_id = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--run") {
      run_id = std::strtol(value, nullptr, 10);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0) usage();
  if (workload == "calibrate") {
    calibrate();
    return 0;
  }

  Tracer tr(trace);
  Pass pass;
  pass.workload = workload;
  {
    const Scope root(tr, "workload");
    if (workload == "jacobi") {
      jacobi_pass(pass, tr);
    } else if (workload == "water") {
      water_pass(pass, tr);
    } else if (workload == "collectives") {
      collectives_pass(pass, seed, tr);
    } else {
      usage();
    }
  }
  print_pass(pass, tr, run_id);
  return 0;
}
