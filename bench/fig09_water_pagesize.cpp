// Figure 9: page-size sensitivity, 8-processor Water, 216 molecules.
//
// Paper: "The CNI is also less sensitive to page size... even though there
// is some false sharing with larger page sizes" (x: 2..8 KB).
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "fig09_water_pagesize");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("figure", "fig09");
  reporter.add_config("app", "water");
  apps::WaterConfig cfg{216, 2};
  bench::print_pagesize_series("Figure 9: Water page-size sensitivity (p=8)",
                               apps::run_water, cfg, 8, {2048, 4096, 8192}, &reporter);
  return reporter.finish() ? 0 : 1;
}
