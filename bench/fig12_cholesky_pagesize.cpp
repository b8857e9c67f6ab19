// Figure 12: page-size sensitivity, 8-processor Cholesky, bcsstk14.
//
// Paper: "very sensitive to the size of the shared memory page because of
// large page migration overhead... reduced a lot in CNI due to transmit and
// receive caching" (x: 2..8 KB).
#include "apps/cholesky.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig12_cholesky_pagesize").report;
  reporter.add_config("figure", "fig12");
  reporter.add_config("app", "cholesky");
  apps::CholeskyConfig cfg = apps::CholeskyConfig::bcsstk14();
  if (cni::bench::fast_mode()) cfg = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};
  bench::print_pagesize_series("Figure 12: Cholesky page-size sensitivity (p=8)",
                               apps::run_cholesky, cfg, 8, {2048, 4096, 8192}, &reporter);
  return reporter.finish() ? 0 : 1;
}
