// Table 5: performance improvement with ATM of unrestricted cell size.
//
// Paper: "we experimented with a mythical networking technology having the
// same characteristics as ATM but with unlimited cell size... Jacobi 5.69%,
// Water 13.31%, Cholesky 25.29%" (8 processors) — the 53-byte cell's
// fragmentation/reassembly tax is a major detriment.
#include "apps/cholesky.hpp"
#include "apps/jacobi.hpp"
#include "apps/water.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cni;
  auto reporter = bench::parse_args(argc, argv, "tab05_cellsize").report;
  reporter.add_config("table", "tab05");
  const bool fast = bench::fast_mode();
  apps::JacobiConfig jac = fast ? apps::JacobiConfig{256, 5, 16}
                                : apps::JacobiConfig{1024, 20, 16};
  apps::WaterConfig wat{343, 2};
  apps::CholeskyConfig cho = apps::CholeskyConfig::bcsstk14();
  if (fast) cho = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};

  const bench::Reference jac_ref = bench::reference_of(jac);
  const bench::Reference wat_ref = bench::reference_of(wat);
  const bench::Reference cho_ref = bench::reference_of(cho);
  // Two jobs per app, on the CNI board at p=8: 53-byte cells, then unrestricted.
  std::vector<bench::Job<apps::RunResult>> jobs;
  const auto both_cells = [&](const char* app, auto run, const auto& cfg,
                              const bench::Reference& ref) {
    cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 8);
    const std::string at = std::string("app=") + app + " cells=";
    jobs.push_back(bench::app_job(run, params, cfg, ref, at + "atm53"));
    params.fabric.cell_mode = atm::CellMode::kUnrestricted;
    jobs.push_back(bench::app_job(run, params, cfg, ref, at + "unrestricted"));
  };
  both_cells("jacobi", apps::run_jacobi, jac, jac_ref);
  both_cells("water", apps::run_water, wat, wat_ref);
  both_cells("cholesky", apps::run_cholesky, cho, cho_ref);
  const std::vector<apps::RunResult> results = bench::run_points(jobs);

  util::Table t("Table 5: improvement with unrestricted ATM cell size (p=8, CNI)");
  t.set_header({"Application", "% improvement"});
  const char* const rows[][2] = {{"jacobi", "Jacobi 1024x1024"},
                                 {"water", "Water 343 molecules"},
                                 {"cholesky", "Cholesky bcsstk14"}};
  for (std::size_t a = 0; a < std::size(rows); ++a) {
    const std::string app = rows[a][0];
    const apps::RunResult& base = results[2 * a];
    const apps::RunResult& unr = results[2 * a + 1];
    const double pct =
        100.0 * (static_cast<double>(base.elapsed) - static_cast<double>(unr.elapsed)) /
        static_cast<double>(base.elapsed);
    t.add_row(rows[a][1], {pct}, 2);
    if (reporter.active()) {
      reporter.add_point(bench::run_point("app=" + app + " cells=atm53",
                                          {{"app", app}, {"cells", "atm53"}},
                                          {{"improvement_pct", pct}}, base));
      reporter.add_point(bench::run_point("app=" + app + " cells=unrestricted",
                                          {{"app", app}, {"cells", "unrestricted"}},
                                          {}, unr));
    }
  }
  t.print();
  return reporter.finish() ? 0 : 1;
}
