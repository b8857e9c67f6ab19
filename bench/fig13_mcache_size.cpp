// Figure 13: network cache hit ratio vs Message Cache size (8-processor
// Jacobi, Water and Cholesky).
//
// Paper: "For Water and Jacobi, a slight increase beyond 32KB brings the hit
// ratio to its optimal limit... In Cholesky the ratio saturates at 90% for a
// Message Cache size of 512 KB" — so the OSIRIS board's 1 MB suffices.
#include "apps/cholesky.hpp"
#include "apps/jacobi.hpp"
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "fig13_mcache_size");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("figure", "fig13");
  const bool fast = bench::fast_mode();
  apps::JacobiConfig jac = fast ? apps::JacobiConfig{128, 5, 16}
                                : apps::JacobiConfig{512, 15, 16};
  apps::WaterConfig wat{fast ? 64u : 216u, 2};
  apps::CholeskyConfig cho = apps::CholeskyConfig::bcsstk14();
  if (fast) cho = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};

  const bench::Reference jac_ref = bench::reference_of(jac);
  const bench::Reference wat_ref = bench::reference_of(wat);
  const bench::Reference cho_ref = bench::reference_of(cho);

  util::Table t("Figure 13: hit ratio vs Message Cache size (p=8)");
  t.set_header({"cache KB", "Jacobi (%)", "Water (%)", "Cholesky (%)"});
  for (std::uint64_t kb : {32ull, 64ull, 128ull, 256ull, 512ull, 1024ull}) {
    auto params = [&](std::uint64_t cache_kb) {
      return apps::make_params(cluster::BoardKind::kCni, 8, 4096, cache_kb * 1024);
    };
    const std::string at = "cache_kb=" + std::to_string(kb);
    const auto j = bench::run_checked(apps::run_jacobi, params(kb), jac, jac_ref,
                                      at + " app=jacobi");
    const auto w = bench::run_checked(apps::run_water, params(kb), wat, wat_ref,
                                      at + " app=water");
    const auto c = bench::run_checked(apps::run_cholesky, params(kb), cho, cho_ref,
                                      at + " app=cholesky");
    t.add_row(std::to_string(kb),
              {j.hit_ratio_pct, w.hit_ratio_pct, c.hit_ratio_pct}, 1);
    if (reporter.active()) {
      const std::string cache_kb = std::to_string(kb);
      const auto point = [&](const char* app, const apps::RunResult& r) {
        reporter.add_point(bench::run_point(
            "cache_kb=" + cache_kb + " app=" + app,
            {{"cache_kb", cache_kb}, {"app", app}}, {}, r));
      };
      point("jacobi", j);
      point("water", w);
      point("cholesky", c);
    }
  }
  t.print();
  return reporter.finish() ? 0 : 1;
}
