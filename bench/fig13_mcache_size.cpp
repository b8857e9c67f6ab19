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
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "fig13_mcache_size").report;
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

  // Three jobs per cache size, one per app, on the CNI board at p=8.
  const std::uint64_t sizes_kb[] = {32, 64, 128, 256, 512, 1024};
  std::vector<bench::Job<apps::RunResult>> jobs;
  for (const std::uint64_t kb : sizes_kb) {
    const auto params = apps::make_params(cluster::BoardKind::kCni, 8, 4096, kb * 1024);
    const std::string at = "cache_kb=" + std::to_string(kb);
    jobs.push_back(
        bench::app_job(apps::run_jacobi, params, jac, jac_ref, at + " app=jacobi"));
    jobs.push_back(
        bench::app_job(apps::run_water, params, wat, wat_ref, at + " app=water"));
    jobs.push_back(
        bench::app_job(apps::run_cholesky, params, cho, cho_ref, at + " app=cholesky"));
  }
  const std::vector<apps::RunResult> results = bench::run_points(jobs);

  util::Table t("Figure 13: hit ratio vs Message Cache size (p=8)");
  t.set_header({"cache KB", "Jacobi (%)", "Water (%)", "Cholesky (%)"});
  for (std::size_t k = 0; k < std::size(sizes_kb); ++k) {
    const apps::RunResult* r = &results[3 * k];  // jacobi, water, cholesky
    const std::string cache_kb = std::to_string(sizes_kb[k]);
    t.add_row(cache_kb, {r[0].hit_ratio_pct, r[1].hit_ratio_pct, r[2].hit_ratio_pct}, 1);
    if (reporter.active()) {
      const char* const names[] = {"jacobi", "water", "cholesky"};
      for (std::size_t a = 0; a < std::size(names); ++a) {
        const std::string app = names[a];
        reporter.add_point(bench::run_point("cache_kb=" + cache_kb + " app=" + app,
                                            {{"cache_kb", cache_kb}, {"app", app}}, {},
                                            r[a]));
      }
    }
  }
  t.print();
  return reporter.finish() ? 0 : 1;
}
