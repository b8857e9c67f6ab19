// Table 3: overhead breakdown for 8-processor Water, 216 molecules.
//
// Paper: CNI 0.17/2.24/2.95 vs standard 0.30/2.45/2.95 (10^9 cycles).
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "tab03_water_overhead");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("table", "tab03");
  reporter.add_config("app", "water");
  apps::WaterConfig cfg{216, 2};
  const auto [cni, std_] = bench::run_both_boards(apps::run_water, cfg, 8);
  bench::print_overhead_table("Table 3: overhead, 8-processor Water 216 molecules",
                              cni, std_);
  bench::report_overhead_table(reporter, cni, std_);
  return reporter.finish() ? 0 : 1;
}
