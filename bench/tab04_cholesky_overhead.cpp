// Table 4: overhead breakdown for 8-processor Cholesky, matrix bcsstk14.
//
// Paper: CNI 3.39/61.8/21.5 vs standard 3.35/65.1/21.5 (10^9 cycles) —
// delay dominates (fine-grained synchronization), CNI reduces it.
#include "apps/cholesky.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "tab04_cholesky_overhead").report;
  reporter.add_config("table", "tab04");
  reporter.add_config("app", "cholesky");
  apps::CholeskyConfig cfg = apps::CholeskyConfig::bcsstk14();
  if (cni::bench::fast_mode()) cfg = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};
  const auto [cni, std_] = bench::run_both_boards(apps::run_cholesky, cfg, 8);
  bench::print_overhead_table("Table 4: overhead, 8-processor Cholesky bcsstk14",
                              cni, std_);
  bench::report_overhead_table(reporter, cni, std_);
  return reporter.finish() ? 0 : 1;
}
