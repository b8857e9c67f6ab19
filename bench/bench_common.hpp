// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's §3 and
// prints the same rows/series. `CNI_BENCH_FAST=1` shrinks the sweep for
// smoke runs; the default matches paper scale.
//
// A binary reads its command line once, in parse_args, against the one flag
// table there. Its figure points then run through run_points, on a pool of
// `CNI_BENCH_JOBS` workers (default hardware_concurrency): every point is
// an independent simulation with its own cluster, each point's result is
// bit-identical to a sequential run, and results come back by index so the
// printed ordering never depends on completion order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "apps/water.hpp"
#include "atm/topology.hpp"
#include "cluster/params.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cni::bench {

/// A bench binary's command line, read once by parse_args.
struct Args {
  obs::Reporter report;                       ///< the report files asked for
  std::optional<atm::TopologyKind> topology;  ///< --topology, when given
  bool json = false;                          ///< --json
  std::uint32_t nodes = 0;   ///< --nodes; 0 = the binary's own node counts
  std::uint32_t rounds = 0;  ///< --rounds; 0 = the binary's default
};

/// The flag sets a binary takes: the report and fabric flags of every
/// figure binary, and the scale flags of the node-count sweeps.
enum FlagSet : unsigned { kFigureFlags = 1u, kScaleFlags = 2u };

/// Reads argv against the flag table below, keeping the flags in `sets`.
/// `--help` prints the usage and exits 0. An unknown argument, or a value
/// its flag rejects, prints the error and the usage to stderr and exits 2
/// before anything runs, so a typo cannot silently drop a report or change
/// the sweep. Then it installs the defaults every SimParams and DsmParams
/// built afterwards picks up (trace options, fabric shape, collective mode),
/// so it runs before any sweep worker starts; the report records the shape
/// and mode, so every artifact says which fabric and barrier path made it.
inline Args parse_args(int argc, char** argv, std::string binary,
                       unsigned sets = kFigureFlags) {
  struct Parsed {
    obs::ReportFiles files;
    obs::Options obs = obs::default_options();
    std::optional<atm::TopologyKind> topology;
    std::uint32_t ports = atm::default_switch_ports();
    cluster::CollectiveMode collective = cluster::default_collective();
    bool json = false;
    std::uint32_t nodes = 0;
    std::uint32_t rounds = 0;
  };
  // One flag: its name (ending in '=' when it takes a value, which follows
  // it in the same argument), what the usage shows for the value, its set,
  // the error for a value it rejects (%s is the value) and where it goes.
  struct Flag {
    std::string_view name;
    const char* metavar;
    unsigned set;
    const char* bad;
    bool (*apply)(const char* value, Parsed& p);
  };
  static constexpr auto count = [](const char* text, std::uint32_t& out, std::uint32_t lo,
                                   bool pow2 = false, std::uint32_t hi = UINT32_MAX) {
    const auto v = util::parse_u32(text);
    if (!v || *v < lo || *v > hi || (pow2 && !util::is_pow2(*v))) return false;
    out = *v;
    return true;
  };
  static constexpr auto path = [](const char* text, std::string& out) {
    out = text;
    return !out.empty();
  };
  static constexpr Flag kFlags[] = {
      {"--json", "", kScaleFlags, "",
       [](const char*, Parsed& p) { return p.json = true; }},
      {"--nodes=", "N", kScaleFlags,
       "invalid value in '--nodes=%s' (need a power of two >= 2)",
       [](const char* v, Parsed& p) { return count(v, p.nodes, 2, true); }},
      {"--rounds=", "N", kScaleFlags,
       "invalid value in '--rounds=%s' (need a count >= 1)",
       [](const char* v, Parsed& p) { return count(v, p.rounds, 1); }},
      {"--trace-out=", "FILE", kFigureFlags, "missing file name in '--trace-out=%s'",
       [](const char* v, Parsed& p) { return path(v, p.files.trace); }},
      {"--metrics-out=", "FILE", kFigureFlags, "missing file name in '--metrics-out=%s'",
       [](const char* v, Parsed& p) { return path(v, p.files.metrics); }},
      {"--critpath-out=", "FILE", kFigureFlags,
       "missing file name in '--critpath-out=%s'",
       [](const char* v, Parsed& p) { return path(v, p.files.critpath); }},
      {"--trace-capacity=", "N", kFigureFlags,
       "invalid --trace-capacity=%s (need a count >= 1)",
       [](const char* v, Parsed& p) { return count(v, p.obs.trace_capacity, 1); }},
      {"--topology=", "banyan|clos|torus", kFigureFlags,
       "unknown topology '%s' (--topology takes banyan, clos or torus)",
       [](const char* v, Parsed& p) {
         return atm::parse_topology(v, p.topology.emplace());
       }},
      {"--ports=", "N", kFigureFlags,
       "invalid --ports=%s (the fabric port count must be a power of two between 2 and "
       "65536, e.g. --ports=4096)",
       [](const char* v, Parsed& p) { return count(v, p.ports, 2, true, 65536); }},
      {"--collective=", "nic|host", kFigureFlags,
       "unknown collective mode '%s' (--collective takes nic or host)",
       [](const char* v, Parsed& p) {
         return cluster::parse_collective(v, p.collective);
       }},
  };

  const auto usage = [&](std::FILE* out) {
    std::fprintf(out, "usage: %s", argv[0]);
    for (const Flag& f : kFlags) {
      if ((f.set & sets) != 0) {
        std::fprintf(out, " [%.*s%s]", static_cast<int>(f.name.size()), f.name.data(),
                     f.metavar);
      }
    }
    std::fprintf(out, "\nCNI_BENCH_FAST=1 in the environment trims the sweep.\n");
  };
  Parsed p;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      usage(stdout);
      std::exit(0);
    }
    const Flag* flag = std::ranges::find_if(kFlags, [&](const Flag& f) {
      return (f.set & sets) != 0 &&
             (f.name.ends_with('=') ? arg.starts_with(f.name) : arg == f.name);
    });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
    } else if (const char* value = argv[i] + flag->name.size(); flag->apply(value, p)) {
      continue;
    } else {
      std::fprintf(stderr, "error: ");
      std::fprintf(stderr, flag->bad, value);
      std::fprintf(stderr, "\n");
    }
    usage(stderr);
    std::exit(2);
  }

  // A trace file, and a critical path (extracted from the causal records),
  // need the trace rings on.
  p.obs.trace = p.obs.trace || !p.files.trace.empty() || !p.files.critpath.empty();
  obs::set_default_options(p.obs);
  const atm::TopologyKind topology = p.topology.value_or(atm::default_topology());
  atm::set_default_fabric_shape(topology, p.ports);
  cluster::set_default_collective(p.collective);
  Args args{obs::Reporter(std::move(binary), std::move(p.files)), p.topology, p.json,
            p.nodes, p.rounds};
  args.report.add_config("topology", atm::topology_name(topology));
  args.report.add_config("fabric_ports", std::to_string(p.ports));
  args.report.add_config("collective", cluster::collective_name(p.collective));
  return args;
}

inline bool fast_mode() { return util::env_flag("CNI_BENCH_FAST").value_or(false); }

// ---------------------------------------------------------------------------
// Answer checks. Every figure point compares its run's answer with the
// app's sequential reference, computed once per config, at the tolerances of
// tests/test_apps_integration.cpp. A mismatch aborts the binary naming the
// point, so a wrong answer never reaches a printed figure. The runs pass no
// checksum pointer: that would add node 0's simulated gather to the timed
// run; RunResult::answer is the same sum at no simulated cost.
// ---------------------------------------------------------------------------

/// An app config's sequential answer and the relative error a run may show.
struct Reference {
  double checksum = 0;
  double rel_tol = 0;
};

inline Reference reference_of(const apps::JacobiConfig& c) {
  return {apps::jacobi_reference_checksum(c), 1e-12};
}
inline Reference reference_of(const apps::WaterConfig& c) {
  return {apps::water_reference_checksum(c), 1e-6};
}
inline Reference reference_of(const apps::CholeskyConfig& c) {
  return {apps::cholesky_reference_checksum(c), 1e-6};
}

/// Runs one figure point; aborts, naming `point`, if its answer misses `ref`.
template <typename Config, typename RunFn>
apps::RunResult run_checked(RunFn run, const cluster::SimParams& params,
                            const Config& cfg, const Reference& ref,
                            const std::string& point) {
  apps::RunResult r = run(params, cfg, nullptr);
  const bool ok =
      std::abs(r.answer - ref.checksum) <= std::abs(ref.checksum) * ref.rel_tol;
  if (!ok) {
    char msg[256];
    std::snprintf(msg, sizeof msg, "wrong answer at %s: %.17g vs reference %.17g",
                  point.c_str(), r.answer, ref.checksum);
    CNI_CHECK_MSG(ok, msg);
  }
  return r;
}

// ---------------------------------------------------------------------------
// The sweep pool. Every binary but micro_topology (whose points each time
// their own wall clock) hands its figure points to run_points.
// ---------------------------------------------------------------------------

/// One figure point: the simulated nodes of the largest cluster it builds
/// at once, and the run that produces its result.
template <typename R>
struct Job {
  std::uint32_t nodes = 0;
  std::function<R()> run;
};

/// Runs every job on the sweep pool and returns the results in the jobs'
/// order, whatever order they finish in. The largest clusters start first,
/// so the longest points do not trail the sweep, and the pool holds no more
/// clusters at once than their fiber stacks fit under the kernel's mapping
/// limit (apps::map_bounded_jobs, sized by the largest job).
template <typename R>
std::vector<R> run_points(const std::vector<Job<R>>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, std::greater{},
                           [&](std::size_t i) { return jobs[i].nodes; });
  const std::uint32_t largest = jobs.empty() ? 0 : jobs[order.front()].nodes;
  const std::size_t workers =
      apps::map_bounded_jobs(apps::max_map_count(), largest, apps::sweep_jobs());
  std::vector<R> out(jobs.size());
  apps::parallel_indexed(order.size(), workers,
                         [&](std::size_t k) { out[order[k]] = jobs[order[k]].run(); });
  return out;
}

/// A job that runs `cfg` on `params` through run_checked. `cfg` and `ref`
/// are borrowed: they must outlive run_points.
template <typename Config, typename RunFn>
Job<apps::RunResult> app_job(RunFn run, const cluster::SimParams& params,
                             const Config& cfg, const Reference& ref, std::string point) {
  return {params.processors, [run, params, &cfg, &ref, point = std::move(point)] {
            return run_checked(run, params, cfg, ref, point);
          }};
}

/// Appends one config's run on the CNI board, then on the standard board,
/// each named `at` plus its system.
template <typename Config, typename RunFn>
void add_both_boards(std::vector<Job<apps::RunResult>>& jobs, RunFn run,
                     const Config& cfg, const Reference& ref, std::uint32_t procs,
                     std::uint64_t page_size, const std::string& at) {
  using cluster::BoardKind;
  jobs.push_back(app_job(run, apps::make_params(BoardKind::kCni, procs, page_size), cfg,
                         ref, at + "system=cni"));
  jobs.push_back(app_job(run, apps::make_params(BoardKind::kStandard, procs, page_size),
                         cfg, ref, at + "system=standard"));
}

/// One config on the CNI board and on the standard board (Tables 2-4).
template <typename Config, typename RunFn>
std::pair<apps::RunResult, apps::RunResult> run_both_boards(RunFn run, const Config& cfg,
                                                            std::uint32_t procs,
                                                            std::uint64_t page_size = 4096) {
  const Reference ref = reference_of(cfg);
  std::vector<Job<apps::RunResult>> jobs;
  add_both_boards(jobs, run, cfg, ref, procs, page_size, "");
  std::vector<apps::RunResult> r = run_points(jobs);
  return {std::move(r[0]), std::move(r[1])};
}

// ---------------------------------------------------------------------------
// Run-report plumbing. Every figure/table binary owns an obs::Reporter; these
// helpers turn finished runs into ReportPoints carrying the figure numbers
// and the per-node snapshot (counters, histograms, gauges, trace).
// ---------------------------------------------------------------------------

/// Builds one ReportPoint from a finished run. Always records elapsed
/// simulated time and the hit ratio next to the caller's figure values.
inline obs::ReportPoint run_point(
    std::string label, std::vector<std::pair<std::string, std::string>> config,
    std::vector<std::pair<std::string, double>> values, const apps::RunResult& r) {
  obs::ReportPoint pt;
  pt.label = std::move(label);
  pt.config = std::move(config);
  pt.values = std::move(values);
  pt.values.emplace_back("elapsed_ps", static_cast<double>(r.elapsed));
  pt.values.emplace_back("hit_ratio_pct", r.hit_ratio_pct);
  pt.snapshot = r.snapshot;
  return pt;
}

/// One (CNI, standard) pair of runs at a processor count.
struct SpeedupPoint {
  std::uint32_t procs = 0;
  apps::RunResult cni;
  apps::RunResult standard;
};

/// Prints the paper's speedup-figure series: CNI-speedup, Standard-speedup
/// and the CNI network cache hit ratio, with T(1) of each configuration as
/// its own baseline.
inline void print_speedup_series(const std::string& title,
                                 const std::vector<SpeedupPoint>& points) {
  util::Table t(title);
  t.set_header({"procs", "CNI-speedup", "Standard-speedup", "NetCacheHitRatio(%)"});
  const double cni1 = static_cast<double>(points.front().cni.elapsed);
  const double std1 = static_cast<double>(points.front().standard.elapsed);
  for (const SpeedupPoint& pt : points) {
    t.add_row(std::to_string(pt.procs),
              {cni1 / static_cast<double>(pt.cni.elapsed),
               std1 / static_cast<double>(pt.standard.elapsed),
               pt.cni.hit_ratio_pct},
              2);
  }
  t.print();
}

/// Reports a speedup sweep: one ReportPoint per (procs, board kind) run,
/// carrying the same speedup numbers the printed series shows.
inline void report_speedup_series(obs::Reporter& rep,
                                  const std::vector<SpeedupPoint>& points) {
  if (!rep.active() || points.empty()) return;
  const double cni1 = static_cast<double>(points.front().cni.elapsed);
  const double std1 = static_cast<double>(points.front().standard.elapsed);
  for (const SpeedupPoint& pt : points) {
    const std::string procs = std::to_string(pt.procs);
    rep.add_point(run_point(
        "procs=" + procs + " system=cni",
        {{"procs", procs}, {"system", "cni"}},
        {{"speedup", cni1 / static_cast<double>(pt.cni.elapsed)}}, pt.cni));
    rep.add_point(run_point(
        "procs=" + procs + " system=standard",
        {{"procs", procs}, {"system", "standard"}},
        {{"speedup", std1 / static_cast<double>(pt.standard.elapsed)}}, pt.standard));
  }
}

/// Runs one app config on both board kinds at each processor count along
/// the paper's x-axis: 1..32 (1..8 in fast mode).
template <typename Config, typename RunFn>
std::vector<SpeedupPoint> speedup_sweep(RunFn run, const Config& cfg,
                                        std::uint64_t page_size = 4096) {
  const Reference ref = reference_of(cfg);
  std::vector<Job<apps::RunResult>> jobs;
  for (const std::uint32_t p : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
    if (p > 8 && fast_mode()) break;
    const std::string at = "procs=" + std::to_string(p) + " ";
    add_both_boards(jobs, run, cfg, ref, p, page_size, at);
  }
  std::vector<apps::RunResult> r = run_points(jobs);
  std::vector<SpeedupPoint> out;
  for (std::size_t i = 0; i < r.size(); i += 2) {
    out.push_back({jobs[i].nodes, std::move(r[i]), std::move(r[i + 1])});
  }
  return out;
}

/// Page-size sensitivity at a fixed processor count: speedup(p) against the
/// same-page-size single-processor run, per configuration (Figures 5/9/12).
template <typename Config, typename RunFn>
void print_pagesize_series(const std::string& title, RunFn run, const Config& cfg,
                           std::uint32_t procs,
                           const std::vector<std::uint64_t>& page_sizes,
                           obs::Reporter* rep = nullptr) {
  // Four runs per page size: {CNI, standard} at 1 processor, then at `procs`.
  const Reference ref = reference_of(cfg);
  std::vector<Job<apps::RunResult>> jobs;
  for (const std::uint64_t ps : page_sizes) {
    for (const std::uint32_t p : {1u, procs}) {
      const std::string at =
          "page_bytes=" + std::to_string(ps) + " procs=" + std::to_string(p) + " ";
      add_both_boards(jobs, run, cfg, ref, p, ps, at);
    }
  }
  const std::vector<apps::RunResult> results = run_points(jobs);
  util::Table t(title);
  t.set_header({"page bytes", "CNI speedup", "Standard speedup", "HitRatio(%)"});
  for (std::size_t i = 0; i < page_sizes.size(); ++i) {
    const apps::RunResult& cni1 = results[i * 4 + 0];
    const apps::RunResult& std1 = results[i * 4 + 1];
    const apps::RunResult& cnip = results[i * 4 + 2];
    const apps::RunResult& stdp = results[i * 4 + 3];
    const double cni_speedup =
        static_cast<double>(cni1.elapsed) / static_cast<double>(cnip.elapsed);
    const double std_speedup =
        static_cast<double>(std1.elapsed) / static_cast<double>(stdp.elapsed);
    t.add_row(std::to_string(page_sizes[i]),
              {cni_speedup, std_speedup, cnip.hit_ratio_pct}, 2);
    if (rep != nullptr && rep->active()) {
      const std::string pb = std::to_string(page_sizes[i]);
      rep->add_point(run_point("page_bytes=" + pb + " system=cni",
                               {{"page_bytes", pb},
                                {"system", "cni"},
                                {"procs", std::to_string(procs)}},
                               {{"speedup", cni_speedup}}, cnip));
      rep->add_point(run_point("page_bytes=" + pb + " system=standard",
                               {{"page_bytes", pb},
                                {"system", "standard"},
                                {"procs", std::to_string(procs)}},
                               {{"speedup", std_speedup}}, stdp));
    }
  }
  t.print();
}

/// Prints a Tables 2-4 style overhead breakdown (units: 1e9 CPU cycles,
/// per-processor averages; Total = sum of the categories, as in the paper).
inline void print_overhead_table(const std::string& title, const apps::RunResult& cni,
                                 const apps::RunResult& standard) {
  util::Table t(title);
  t.set_header({"Category", "Time-CNI (10^9 cycles)", "Time-standard (10^9 cycles)"});
  t.add_row("Synch overhead", {cni.overhead_e9, standard.overhead_e9}, 4);
  t.add_row("Synch delay", {cni.delay_e9, standard.delay_e9}, 4);
  t.add_row("Computation", {cni.compute_e9, standard.compute_e9}, 4);
  t.add_row("Total", {cni.total_sum_e9(), standard.total_sum_e9()}, 4);
  t.print();
}

/// Reports an overhead-table pair: one ReportPoint per board kind carrying
/// the table's per-category breakdown.
inline void report_overhead_table(obs::Reporter& rep, const apps::RunResult& cni,
                                  const apps::RunResult& standard) {
  if (!rep.active()) return;
  const auto values = [](const apps::RunResult& r) {
    return std::vector<std::pair<std::string, double>>{
        {"synch_overhead_e9", r.overhead_e9},
        {"synch_delay_e9", r.delay_e9},
        {"compute_e9", r.compute_e9},
        {"total_e9", r.total_sum_e9()}};
  };
  rep.add_point(run_point("system=cni", {{"system", "cni"}}, values(cni), cni));
  rep.add_point(
      run_point("system=standard", {{"system", "standard"}}, values(standard), standard));
}

}  // namespace cni::bench
