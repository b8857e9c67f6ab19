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
  cni::bench::check_args(argc, argv);
  using namespace cni;
  obs::Reporter reporter(argc, argv, "tab05_cellsize");
  cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("table", "tab05");
  const bool fast = bench::fast_mode();
  apps::JacobiConfig jac = fast ? apps::JacobiConfig{256, 5, 16}
                                : apps::JacobiConfig{1024, 20, 16};
  apps::WaterConfig wat{343, 2};
  apps::CholeskyConfig cho = apps::CholeskyConfig::bcsstk14();
  if (fast) cho = apps::CholeskyConfig{256, 16, 2, 3, 1024, 2000};

  auto improvement = [&](const char* app, auto run, const auto& cfg) {
    auto p_std = apps::make_params(cluster::BoardKind::kCni, 8);
    auto p_unr = p_std;
    p_unr.fabric.cell_mode = atm::CellMode::kUnrestricted;
    const std::string name(app);
    const bench::Reference ref = bench::reference_of(cfg);
    const auto base =
        bench::run_checked(run, p_std, cfg, ref, "app=" + name + " cells=atm53");
    const auto unr =
        bench::run_checked(run, p_unr, cfg, ref, "app=" + name + " cells=unrestricted");
    const double pct =
        100.0 * (static_cast<double>(base.elapsed) - static_cast<double>(unr.elapsed)) /
        static_cast<double>(base.elapsed);
    if (reporter.active()) {
      reporter.add_point(bench::run_point("app=" + name + " cells=atm53",
                                          {{"app", name}, {"cells", "atm53"}},
                                          {{"improvement_pct", pct}}, base));
      reporter.add_point(bench::run_point("app=" + name + " cells=unrestricted",
                                          {{"app", name}, {"cells", "unrestricted"}},
                                          {}, unr));
    }
    return pct;
  };

  util::Table t("Table 5: improvement with unrestricted ATM cell size (p=8, CNI)");
  t.set_header({"Application", "% improvement"});
  t.add_row("Jacobi 1024x1024", {improvement("jacobi", apps::run_jacobi, jac)}, 2);
  t.add_row("Water 343 molecules", {improvement("water", apps::run_water, wat)}, 2);
  t.add_row("Cholesky bcsstk14", {improvement("cholesky", apps::run_cholesky, cho)}, 2);
  t.print();
  return reporter.finish() ? 0 : 1;
}
