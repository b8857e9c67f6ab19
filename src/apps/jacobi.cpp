#include "apps/jacobi.hpp"

#include <vector>

namespace cni::apps {
namespace {

struct JacobiShared {
  mem::VAddr a = 0;     ///< current grid (n x n doubles, row-major)
  mem::VAddr b = 0;     ///< next grid
  mem::VAddr sums = 0;  ///< one checksum slot per node
  JacobiConfig cfg;
  std::uint32_t procs = 0;
  double* checksum_out = nullptr;
};

double init_value(std::uint32_t i, std::uint32_t j, std::uint32_t n) {
  // Deterministic, non-trivial boundary/interior values.
  if (i == 0 || j == 0 || i == n - 1 || j == n - 1) {
    return 1.0 + 0.25 * static_cast<double>((i + j) % 7);
  }
  return 0.0;
}

void jacobi_node(dsm::DsmContext& ctx, const JacobiShared& sh) {
  const std::uint32_t n = sh.cfg.n;
  const std::uint32_t p = sh.procs;
  const std::uint32_t me = ctx.self();
  const std::uint32_t r0 = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(me) * n / p);
  const std::uint32_t r1 = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(me + 1) * n / p);
  auto addr = [n](mem::VAddr base, std::uint32_t i, std::uint32_t j) {
    return base + (static_cast<std::uint64_t>(i) * n + j) * sizeof(double);
  };

  // Initialize the owned strip of both grids.
  for (std::uint32_t i = r0; i < r1; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const double v = init_value(i, j, n);
      ctx.write<double>(addr(sh.a, i, j), v);
      ctx.write<double>(addr(sh.b, i, j), v);
    }
    ctx.compute(static_cast<std::uint64_t>(n) * 2);
  }
  ctx.barrier();

  const std::uint32_t c0 = r0 > 1 ? r0 : 1;
  const std::uint32_t c1 = r1 < n - 1 ? r1 : n - 1;
  for (std::uint32_t it = 0; it < sh.cfg.iterations; ++it) {
    // Sweep: next from current; boundary rows of neighbour strips fault in.
    for (std::uint32_t i = c0; i < c1; ++i) {
      for (std::uint32_t j = 1; j + 1 < n; ++j) {
        const double v = 0.25 * (ctx.read<double>(addr(sh.a, i - 1, j)) +
                                 ctx.read<double>(addr(sh.a, i + 1, j)) +
                                 ctx.read<double>(addr(sh.a, i, j - 1)) +
                                 ctx.read<double>(addr(sh.a, i, j + 1)));
        ctx.write<double>(addr(sh.b, i, j), v);
      }
      ctx.compute(static_cast<std::uint64_t>(n - 2) * sh.cfg.flops_cycles_per_point);
    }
    ctx.barrier();
    // Copy back the owned interior.
    for (std::uint32_t i = c0; i < c1; ++i) {
      for (std::uint32_t j = 1; j + 1 < n; ++j) {
        ctx.write<double>(addr(sh.a, i, j), ctx.read<double>(addr(sh.b, i, j)));
      }
      ctx.compute(static_cast<std::uint64_t>(n - 2) * 2);
    }
    ctx.barrier();
  }

  // Deterministic checksum: per-node partial sums in fixed slots, summed in
  // node order by node 0 (float addition order independent of timing).
  double partial = 0;
  for (std::uint32_t i = r0; i < r1; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) partial += ctx.read<double>(addr(sh.a, i, j));
    ctx.compute(n);
  }
  ctx.write<double>(sh.sums + me * sizeof(double), partial);
  ctx.add_answer(partial);
  ctx.barrier();
  if (me == 0 && sh.checksum_out != nullptr) {
    double total = 0;
    for (std::uint32_t k = 0; k < p; ++k) {
      total += ctx.read<double>(sh.sums + k * sizeof(double));
    }
    *sh.checksum_out = total;
  }
  ctx.barrier();
}

}  // namespace

namespace {

RunResult run_jacobi_impl(const cluster::SimParams& params, const JacobiConfig& config,
                          double* checksum, sim::ShardProfiler* prof) {
  return run_app<JacobiShared>(
      params,
      [&](dsm::DsmSystem& dsmsys) {
        JacobiShared sh;
        sh.cfg = config;
        sh.procs = params.processors;
        sh.checksum_out = checksum;
        const std::uint64_t grid = static_cast<std::uint64_t>(config.n) * config.n * 8;
        sh.a = dsmsys.alloc_blocked(grid, "jacobi-a");
        sh.b = dsmsys.alloc_blocked(grid, "jacobi-b");
        sh.sums = dsmsys.alloc_at(params.processors * 8, "jacobi-sums", 0);
        return sh;
      },
      jacobi_node, {}, prof);
}

}  // namespace

RunResult run_jacobi(const cluster::SimParams& params, const JacobiConfig& config,
                     double* checksum) {
  return run_jacobi_impl(params, config, checksum, nullptr);
}

RunResult run_jacobi_profiled(const cluster::SimParams& params, const JacobiConfig& config,
                              sim::ShardProfiler* prof) {
  return run_jacobi_impl(params, config, nullptr, prof);
}

double jacobi_reference_checksum(const JacobiConfig& config) {
  const std::uint32_t n = config.n;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(static_cast<std::size_t>(n) * n);
  auto at = [n](std::vector<double>& g, std::uint32_t i, std::uint32_t j) -> double& {
    return g[static_cast<std::size_t>(i) * n + j];
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      at(a, i, j) = at(b, i, j) = init_value(i, j, n);
    }
  }
  for (std::uint32_t it = 0; it < config.iterations; ++it) {
    for (std::uint32_t i = 1; i + 1 < n; ++i) {
      for (std::uint32_t j = 1; j + 1 < n; ++j) {
        at(b, i, j) = 0.25 * (at(a, i - 1, j) + at(a, i + 1, j) + at(a, i, j - 1) +
                              at(a, i, j + 1));
      }
    }
    for (std::uint32_t i = 1; i + 1 < n; ++i) {
      for (std::uint32_t j = 1; j + 1 < n; ++j) at(a, i, j) = at(b, i, j);
    }
  }
  // Row-major full-grid order equals the p=1 run's summation order; tests
  // compare multi-p runs with a tolerance and same-p runs exactly.
  double sum = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) sum += at(a, i, j);
  }
  return sum;
}

}  // namespace cni::apps
