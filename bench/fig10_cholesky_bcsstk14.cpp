// Figure 10: Cholesky speedup and network cache hit ratio, matrix bcsstk14.
//
// Paper: fine-grained; modest speedups; receive caching pays off because
// "pages tend to move from the releaser to the acquirer".
// Substitution: synthetic banded SPD stand-in for bcsstk14 (see DESIGN.md).
#include "apps/cholesky.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig10_cholesky_bcsstk14").report;
  reporter.add_config("figure", "fig10");
  reporter.add_config("app", "cholesky");
  apps::CholeskyConfig cfg = apps::CholeskyConfig::bcsstk14();
  if (cni::bench::fast_mode()) cfg = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};
  const auto pts = bench::speedup_sweep(apps::run_cholesky, cfg);
  bench::print_speedup_series("Figure 10: Cholesky bcsstk14 speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
