// Figure 5: page-size sensitivity, 8-processor Jacobi, 1024x1024 matrix.
//
// Paper: "the CNI network interface is less sensitive to page size
// variations because of the lower cost of page transfers" (x: 2..16 KB).
#include "apps/jacobi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "fig05_jacobi_pagesize");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("figure", "fig05");
  reporter.add_config("app", "jacobi");
  apps::JacobiConfig cfg = bench::fast_mode() ? apps::JacobiConfig{256, 5, 16}
                                              : apps::JacobiConfig{1024, 20, 16};
  bench::print_pagesize_series("Figure 5: Jacobi page-size sensitivity (p=8)",
                               apps::run_jacobi, cfg, 8,
                               {2048, 4096, 8192, 16384}, &reporter);
  return reporter.finish() ? 0 : 1;
}
