// Figure 2: Jacobi speedup and network cache hit ratio, 128x128 matrix.
//
// Paper: "Both the configurations show mediocre performance for a small
// matrix size (128x128) and a large number of processors (32) but the level
// of degradation is less in the CNI" — hit ratios 96.5..99.5 %.
#include "apps/jacobi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig02_jacobi_speedup_128").report;
  reporter.add_config("figure", "fig02");
  reporter.add_config("app", "jacobi");
  apps::JacobiConfig cfg{128, bench::fast_mode() ? 6u : 40u, 16};
  const auto pts = bench::speedup_sweep(apps::run_jacobi, cfg);
  bench::print_speedup_series("Figure 2: Jacobi 128x128 speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
