// Table 1: the simulation parameters in force (defaults of this build).
#include "bench_common.hpp"
#include "cluster/params.hpp"
#include "obs/report.hpp"

int main(int argc, char** argv) {
  cni::bench::check_args(argc, argv);
  // No simulation runs here, but the binary still honors the obs flags so
  // tooling can treat every fig/tab target uniformly (empty points list).
  cni::obs::Reporter reporter(argc, argv, "tab01_params");
  cni::cluster::apply_fabric_cli(argc, argv, &reporter);
  reporter.add_config("table", "tab01");
  cni::cluster::SimParams params;
  params.to_table().print();
  return reporter.finish() ? 0 : 1;
}
