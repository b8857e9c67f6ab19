// Table 2: overhead breakdown for 8-processor Jacobi, 1024x1024 matrix,
// 2 KB shared-memory pages.
//
// Paper: CNI 0.054/0.086/1.164 vs standard 0.063/0.099/1.165 (10^9 cycles):
// equal computation, lower synch overhead and substantially less delay.
#include "apps/jacobi.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "tab02_jacobi_overhead").report;
  reporter.add_config("table", "tab02");
  reporter.add_config("app", "jacobi");
  apps::JacobiConfig cfg = bench::fast_mode() ? apps::JacobiConfig{256, 5, 16}
                                              : apps::JacobiConfig{1024, 20, 16};
  const auto [cni, std_] = bench::run_both_boards(apps::run_jacobi, cfg, 8, 2048);
  bench::print_overhead_table(
      "Table 2: overhead, 8-processor Jacobi 1024x1024 (2 KB pages)", cni, std_);
  bench::report_overhead_table(reporter, cni, std_);
  return reporter.finish() ? 0 : 1;
}
