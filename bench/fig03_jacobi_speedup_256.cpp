// Figure 3: Jacobi speedup and network cache hit ratio, 256x256 matrix.
//
// Paper: intermediate input size — higher hit ratios and better scaling
// than the 128x128 run (Figure 2), still network-bound at 32 processors.
#include "apps/jacobi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig03_jacobi_speedup_256").report;
  reporter.add_config("figure", "fig03");
  reporter.add_config("app", "jacobi");
  apps::JacobiConfig cfg{256, bench::fast_mode() ? 6u : 40u, 16};
  const auto pts = bench::speedup_sweep(apps::run_jacobi, cfg);
  bench::print_speedup_series("Figure 3: Jacobi 256x256 speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
