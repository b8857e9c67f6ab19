// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's §3 and
// prints the same rows/series. `CNI_BENCH_FAST=1` shrinks the sweep for
// smoke runs; the default matches paper scale.
//
// Sweeps run their points on a thread pool (`CNI_BENCH_JOBS`, defaulting to
// hardware_concurrency): every (procs, board-kind, page-size) point is an
// independent simulation with its own cluster, each point's result is
// bit-identical to a sequential run, and results land in per-point slots so
// the printed ordering never depends on completion order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "apps/water.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cni::bench {

/// A count flag check_args parses (`--nodes=N`): the value must be decimal
/// digits that fit a u32, at least `min`, and a power of two if `pow2`.
struct CountFlag {
  std::string_view flag;  ///< as the usage shows it, e.g. "--nodes=N"
  std::uint32_t min = 1;
  bool pow2 = false;
  std::uint32_t* value = nullptr;  ///< written when given; untouched otherwise
};

/// `--nodes=N`: a power of two >= 2, the fabric's own precondition.
inline CountFlag nodes_flag(std::uint32_t* value) { return {"--nodes=N", 2, true, value}; }
/// `--rounds=N`: at least one round.
inline CountFlag rounds_flag(std::uint32_t* value) { return {"--rounds=N", 1, false, value}; }

/// Exits before anything runs if argv holds an argument the binary does not
/// take. `own` lists the binary's own flags, written as its usage shows them
/// ("--json", "--topology=T"); a flag with "=" matches any value. `counts`
/// are its count flags, parsed into their `value`. Unless
/// `report_and_fabric` is false, the obs::Reporter and
/// cluster::apply_fabric_cli flags are accepted too. `--help` prints the
/// usage and exits 0; any other argument, or a count flag whose value breaks
/// its rule, prints it to stderr and exits 2, so a misspelt flag or a
/// malformed value cannot silently drop a report or change the sweep.
inline void check_args(int argc, char** argv,
                       std::initializer_list<std::string_view> own = {},
                       bool report_and_fabric = true,
                       std::initializer_list<CountFlag> counts = {}) {
  static constexpr std::string_view kShared[] = {
      "--trace-out=FILE", "--metrics-out=FILE", "--critpath-out=FILE",
      "--trace-capacity=N", "--topology=banyan|clos|torus", "--ports=N",
      "--collective=nic|host"};
  const std::span<const std::string_view> shared(
      kShared, report_and_fabric ? std::size(kShared) : 0);
  const auto print_flag = [](std::FILE* out, std::string_view f) {
    std::fprintf(out, " [%.*s]", static_cast<int>(f.size()), f.data());
  };
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out, "usage: %s", argv[0]);
    for (const std::string_view f : own) print_flag(out, f);
    for (const CountFlag& c : counts) print_flag(out, c.flag);
    for (const std::string_view f : shared) print_flag(out, f);
    std::fprintf(out, "\nCNI_BENCH_FAST=1 in the environment trims the sweep.\n");
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      usage(stdout);
      std::exit(0);
    }
    const auto prefix = [](std::string_view flag) {
      return flag.substr(0, flag.find('=') + 1);  // "--nodes=N" -> "--nodes="
    };
    const auto takes = [&](std::string_view flag) {
      return flag.find('=') == std::string_view::npos ? arg == flag
                                                      : arg.starts_with(prefix(flag));
    };
    if (std::ranges::any_of(own, takes) || std::ranges::any_of(shared, takes)) continue;
    const CountFlag* count = std::ranges::find_if(
        counts, [&](const CountFlag& c) { return arg.starts_with(prefix(c.flag)); });
    if (count != counts.end()) {
      const auto v = util::parse_u32(arg.substr(prefix(count->flag).size()));
      if (v && *v >= count->min && (!count->pow2 || util::is_pow2(*v))) {
        *count->value = *v;
        continue;
      }
      std::fprintf(stderr, "error: invalid value in '%s' (need %s%u)\n", argv[i],
                   count->pow2 ? "a power of two >= " : "a count >= ", count->min);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
    }
    usage(stderr);
    std::exit(2);
  }
}

inline bool fast_mode() { return util::env_flag("CNI_BENCH_FAST").value_or(false); }

/// Processor counts along the paper's x-axis (figures run 1..32).
inline std::vector<std::uint32_t> processor_sweep() {
  if (fast_mode()) return {1, 2, 4, 8};
  return {1, 2, 4, 8, 16, 24, 32};
}

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

/// One config on the CNI board, then on the standard board (Tables 2-4).
template <typename Config, typename RunFn>
std::pair<apps::RunResult, apps::RunResult> run_both_boards(RunFn run, const Config& cfg,
                                                            std::uint32_t procs,
                                                            std::uint64_t page_size = 4096) {
  const Reference ref = reference_of(cfg);
  const auto params = [&](cluster::BoardKind kind) {
    return apps::make_params(kind, procs, page_size);
  };
  // A braced list evaluates left to right: CNI runs first.
  return {run_checked(run, params(cluster::BoardKind::kCni), cfg, ref, "system=cni"),
          run_checked(run, params(cluster::BoardKind::kStandard), cfg, ref,
                      "system=standard")};
}

// ---------------------------------------------------------------------------
// Run-report plumbing. Every figure/table binary owns an obs::Reporter; these
// helpers turn finished runs into ReportPoints carrying the figure numbers,
// the legacy NodeStats accounts (for the metrics-vs-legacy diff in
// scripts/validate_report.py) and the per-node metrics/trace snapshot.
// ---------------------------------------------------------------------------

/// Copies the legacy NodeStats accounts into the point, one entry per
/// NodeStats field, in fields() order.
inline void fill_legacy(obs::ReportPoint& pt, const sim::NodeStats& totals) {
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    pt.legacy.emplace_back(f.name, totals.*f.member);
  }
}

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
  fill_legacy(pt, r.totals);
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

/// Runs one app config over the processor sweep on both board kinds. The
/// 2 × |sweep| simulations are independent, so they run as parallel jobs.
template <typename Config, typename RunFn>
std::vector<SpeedupPoint> speedup_sweep(RunFn run, const Config& cfg,
                                        std::uint64_t page_size = 4096) {
  const std::vector<std::uint32_t> procs = processor_sweep();
  const Reference ref = reference_of(cfg);
  std::vector<SpeedupPoint> out(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) out[i].procs = procs[i];
  apps::parallel_indexed(procs.size() * 2, [&](std::size_t job) {
    const std::size_t i = job / 2;
    const bool is_cni = (job % 2) == 0;
    const auto kind = is_cni ? cluster::BoardKind::kCni : cluster::BoardKind::kStandard;
    apps::RunResult r =
        run_checked(run, apps::make_params(kind, procs[i], page_size), cfg, ref,
                    "procs=" + std::to_string(procs[i]) +
                        (is_cni ? " system=cni" : " system=standard"));
    (is_cni ? out[i].cni : out[i].standard) = std::move(r);
  });
  return out;
}

/// Page-size sensitivity at a fixed processor count: speedup(p) against the
/// same-page-size single-processor run, per configuration (Figures 5/9/12).
template <typename Config, typename RunFn>
void print_pagesize_series(const std::string& title, RunFn run, const Config& cfg,
                           std::uint32_t procs,
                           const std::vector<std::uint64_t>& page_sizes,
                           obs::Reporter* rep = nullptr) {
  // Four independent runs per page size: {CNI, standard} × {1, procs}.
  const Reference ref = reference_of(cfg);
  std::vector<apps::RunResult> results(page_sizes.size() * 4);
  apps::parallel_indexed(results.size(), [&](std::size_t job) {
    const std::uint64_t ps = page_sizes[job / 4];
    const bool is_cni = (job % 4) < 2;
    const auto kind = is_cni ? cluster::BoardKind::kCni : cluster::BoardKind::kStandard;
    const std::uint32_t p = (job % 2) == 0 ? 1 : procs;
    results[job] = run_checked(run, apps::make_params(kind, p, ps), cfg, ref,
                               "page_bytes=" + std::to_string(ps) +
                                   " procs=" + std::to_string(p) +
                                   (is_cni ? " system=cni" : " system=standard"));
  });
  util::Table t(title);
  t.set_header({"page bytes", "CNI speedup", "Standard speedup", "HitRatio(%)"});
  for (std::size_t i = 0; i < page_sizes.size(); ++i) {
    const apps::RunResult& cni1 = results[i * 4 + 0];
    const apps::RunResult& cnip = results[i * 4 + 1];
    const apps::RunResult& std1 = results[i * 4 + 2];
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
