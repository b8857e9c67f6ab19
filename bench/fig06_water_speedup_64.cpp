// Figure 6: Water speedup and network cache hit ratio, 64 molecules.
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig06_water_speedup_64").report;
  reporter.add_config("figure", "fig06");
  reporter.add_config("app", "water");
  apps::WaterConfig cfg{64, 2};
  const auto pts = bench::speedup_sweep(apps::run_water, cfg);
  bench::print_speedup_series("Figure 6: Water 64 molecules speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
