// Figure 11: Cholesky speedup and network cache hit ratio, matrix bcsstk15.
//
// Paper: fine-grained; modest speedups; receive caching pays off because
// "pages tend to move from the releaser to the acquirer".
// Substitution: synthetic banded SPD stand-in for bcsstk15 (see DESIGN.md).
#include "apps/cholesky.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "fig11_cholesky_bcsstk15");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("figure", "fig11");
  reporter.add_config("app", "cholesky");
  apps::CholeskyConfig cfg = apps::CholeskyConfig::bcsstk15();
  if (cni::bench::fast_mode()) cfg = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};
  const auto pts = bench::speedup_sweep(apps::run_cholesky, cfg);
  bench::print_speedup_series("Figure 11: Cholesky bcsstk15 speedup / hit ratio", pts);
  bench::report_speedup_series(reporter, pts);
  return reporter.finish() ? 0 : 1;
}
