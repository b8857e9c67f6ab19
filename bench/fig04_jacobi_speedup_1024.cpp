// Figure 4: Jacobi speedup and network cache hit ratio, 1024x1024 matrix.
//
// Paper: large input, near-linear CNI scaling (~18x at 32), hit ratio 93-99%.
#include "apps/jacobi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig04_jacobi_speedup_1024").report;
  reporter.add_config("figure", "fig04");
  reporter.add_config("app", "jacobi");
  apps::JacobiConfig cfg = bench::fast_mode() ? apps::JacobiConfig{256, 5, 16}
                                              : apps::JacobiConfig{1024, 20, 16};
  const auto pts = bench::speedup_sweep(apps::run_jacobi, cfg);
  bench::print_speedup_series("Figure 4: Jacobi 1024x1024 speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
