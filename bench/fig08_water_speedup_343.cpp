// Figure 8: Water speedup and network cache hit ratio, 343 molecules.
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig08_water_speedup_343").report;
  reporter.add_config("figure", "fig08");
  reporter.add_config("app", "water");
  apps::WaterConfig cfg{343, 2};
  const auto pts = bench::speedup_sweep(apps::run_water, cfg);
  bench::print_speedup_series("Figure 8: Water 343 molecules speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
