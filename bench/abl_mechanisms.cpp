// Ablation (beyond the paper): isolate the contribution of each CNI
// mechanism. The paper presents three techniques as a package; this bench
// switches the Message Cache and the Application Interrupt Handlers off
// independently (Application Device Channels are the board substrate and
// stay on) and compares against the full CNI and the standard NIC.
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "abl_mechanisms").report;
  reporter.add_config("table", "ablation");
  reporter.add_config("app", "water");
  apps::WaterConfig cfg{bench::fast_mode() ? 64u : 216u, 2};
  const std::uint32_t procs = 8;

  struct Variant {
    const char* name;
    cluster::BoardKind kind;
    bool mcache;
    bool aih;
  };
  const Variant variants[] = {
      {"standard NIC", cluster::BoardKind::kStandard, false, false},
      {"ADC only", cluster::BoardKind::kCni, false, false},
      {"ADC + Message Cache", cluster::BoardKind::kCni, true, false},
      {"ADC + AIH", cluster::BoardKind::kCni, false, true},
      {"full CNI", cluster::BoardKind::kCni, true, true},
  };

  const bench::Reference ref = bench::reference_of(cfg);
  std::vector<bench::Job<apps::RunResult>> jobs;
  for (const Variant& v : variants) {
    cluster::SimParams params = apps::make_params(v.kind, procs);
    params.cni.enable_message_cache = v.mcache;
    params.cni.enable_aih = v.aih;
    jobs.push_back(bench::app_job(apps::run_water, params, cfg, ref,
                                  std::string("variant=") + v.name));
  }
  const std::vector<apps::RunResult> results = bench::run_points(jobs);

  util::Table t("Ablation: mechanism contributions (Water 216, p=8)");
  t.set_header({"configuration", "time (ms)", "vs standard (%)", "hit ratio (%)",
                "host interrupts"});
  double base = 0;
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const Variant& v = variants[i];
    const apps::RunResult& r = results[i];
    const double ms = static_cast<double>(r.elapsed) / 1e9;
    if (base == 0) base = ms;
    t.add_row(v.name,
              {ms, 100.0 * (base - ms) / base,
               v.kind == cluster::BoardKind::kCni && v.mcache ? r.hit_ratio_pct : 0.0,
               static_cast<double>(r.totals.host_interrupts)},
              2);
    if (reporter.active()) {
      reporter.add_point(bench::run_point(
          v.name, {{"variant", v.name}},
          {{"elapsed_ms", ms}, {"improvement_pct", 100.0 * (base - ms) / base}}, r));
    }
  }
  t.print();
  return reporter.finish() ? 0 : 1;
}
