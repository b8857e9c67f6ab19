#include "apps/water.hpp"

#include <cmath>
#include <vector>

namespace cni::apps {
namespace {

struct WaterShared {
  mem::VAddr pos = 0;    ///< N x 3 doubles, owner-written
  mem::VAddr vel = 0;    ///< N x 3 doubles, owner-only
  mem::VAddr force = 0;  ///< N x 3 doubles, lock-guarded accumulation
  mem::VAddr sums = 0;   ///< per-node checksum slots
  WaterConfig cfg;
  std::uint32_t procs = 0;
  double* checksum_out = nullptr;
};

constexpr std::uint32_t kMoleculeLockBase = 100;

/// Initial lattice position for molecule m, axis a.
double init_pos(std::uint32_t m, std::uint32_t a, std::uint32_t n) {
  const auto side = static_cast<std::uint32_t>(std::lround(std::cbrt(n)));
  const std::uint32_t s = side > 0 ? side : 1;
  const std::uint32_t coords[3] = {m % s, (m / s) % s, m / (s * s)};
  return static_cast<double>(coords[a]) * 1.5 + 0.1 * static_cast<double>(a);
}

/// Pair force along one axis: a smooth short-range interaction.
void pair_force(const double* pi, const double* pj, double* out) {
  double d[3];
  double r2 = 1e-4;
  for (int a = 0; a < 3; ++a) {
    d[a] = pi[a] - pj[a];
    r2 += d[a] * d[a];
  }
  const double inv = 1.0 / (r2 * std::sqrt(r2));
  for (int a = 0; a < 3; ++a) out[a] = d[a] * inv;
}

void water_node(dsm::DsmContext& ctx, const WaterShared& sh) {
  const std::uint32_t n = sh.cfg.molecules;
  const std::uint32_t p = sh.procs;
  const std::uint32_t me = ctx.self();
  const std::uint32_t m0 = static_cast<std::uint32_t>(static_cast<std::uint64_t>(me) * n / p);
  const std::uint32_t m1 = static_cast<std::uint32_t>(static_cast<std::uint64_t>(me + 1) * n / p);
  const std::uint32_t stride = sh.cfg.mol_stride_doubles;
  auto xyz = [stride](mem::VAddr base, std::uint32_t m, std::uint32_t a) {
    return base + (static_cast<std::uint64_t>(m) * stride + a) * sizeof(double);
  };

  // Initialize owned molecules.
  for (std::uint32_t m = m0; m < m1; ++m) {
    for (std::uint32_t a = 0; a < 3; ++a) {
      ctx.write<double>(xyz(sh.pos, m, a), init_pos(m, a, n));
      ctx.write<double>(xyz(sh.vel, m, a), 0.01 * static_cast<double>((m + a) % 5));
      ctx.write<double>(xyz(sh.force, m, a), 0.0);
    }
    ctx.compute(30);
  }
  ctx.barrier();

  // Postponed-update accumulation buffer (private memory).
  std::vector<double> local(static_cast<std::size_t>(n) * 3);
  std::vector<bool> touched(n);

  for (std::uint32_t step = 0; step < sh.cfg.steps; ++step) {
    // Phase 1: pair forces over the half shell (each pair computed once).
    std::fill(local.begin(), local.end(), 0.0);
    std::fill(touched.begin(), touched.end(), false);
    for (std::uint32_t i = m0; i < m1; ++i) {
      double pi[3];
      for (std::uint32_t a = 0; a < 3; ++a) pi[a] = ctx.read<double>(xyz(sh.pos, i, a));
      for (std::uint32_t off = 1; off <= n / 2; ++off) {
        const std::uint32_t j = (i + off) % n;
        // The classic half-shell double-count guard for even n.
        if (n % 2 == 0 && off == n / 2 && i >= n / 2) continue;
        double pj[3];
        for (std::uint32_t a = 0; a < 3; ++a) pj[a] = ctx.read<double>(xyz(sh.pos, j, a));
        double f[3];
        pair_force(pi, pj, f);
        for (std::uint32_t a = 0; a < 3; ++a) {
          local[static_cast<std::size_t>(i) * 3 + a] += f[a];
          local[static_cast<std::size_t>(j) * 3 + a] -= f[a];
        }
        touched[i] = touched[j] = true;
        ctx.compute(sh.cfg.pair_cycles);
      }
    }
    ctx.barrier();

    // Phase 2: postponed updates under per-molecule locks.
    for (std::uint32_t m = 0; m < n; ++m) {
      if (!touched[m]) continue;
      ctx.acquire(kMoleculeLockBase + m);
      for (std::uint32_t a = 0; a < 3; ++a) {
        const mem::VAddr va = xyz(sh.force, m, a);
        ctx.write<double>(va, ctx.read<double>(va) + local[static_cast<std::size_t>(m) * 3 + a]);
      }
      ctx.compute(60);
      ctx.release(kMoleculeLockBase + m);
    }
    ctx.barrier();

    // Phase 3: owners integrate their molecules and reset forces.
    const double dt = 1e-3;
    for (std::uint32_t m = m0; m < m1; ++m) {
      for (std::uint32_t a = 0; a < 3; ++a) {
        const double f = ctx.read<double>(xyz(sh.force, m, a));
        const double v = ctx.read<double>(xyz(sh.vel, m, a)) + dt * f;
        ctx.write<double>(xyz(sh.vel, m, a), v);
        ctx.write<double>(xyz(sh.pos, m, a), ctx.read<double>(xyz(sh.pos, m, a)) + dt * v);
        ctx.write<double>(xyz(sh.force, m, a), 0.0);
      }
      ctx.compute(sh.cfg.integrate_cycles);
    }
    ctx.barrier();
  }

  // Deterministic-order checksum via per-node slots.
  double partial = 0;
  for (std::uint32_t m = m0; m < m1; ++m) {
    for (std::uint32_t a = 0; a < 3; ++a) partial += ctx.read<double>(xyz(sh.pos, m, a));
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

RunResult run_water(const cluster::SimParams& params, const WaterConfig& config,
                    double* checksum) {
  return run_app<WaterShared>(
      params,
      [&](dsm::DsmSystem& dsmsys) {
        WaterShared sh;
        sh.cfg = config;
        sh.procs = params.processors;
        sh.checksum_out = checksum;
        const std::uint64_t vecs =
            static_cast<std::uint64_t>(config.molecules) * config.mol_stride_doubles * 8;
        sh.pos = dsmsys.alloc_blocked(vecs, "water-pos");
        sh.vel = dsmsys.alloc_blocked(vecs, "water-vel");
        sh.force = dsmsys.alloc_blocked(vecs, "water-force");
        sh.sums = dsmsys.alloc_at(params.processors * 8, "water-sums", 0);
        return sh;
      },
      water_node);
}

double water_reference_checksum(const WaterConfig& config) {
  const std::uint32_t n = config.molecules;
  std::vector<double> pos(static_cast<std::size_t>(n) * 3);
  std::vector<double> vel(static_cast<std::size_t>(n) * 3);
  std::vector<double> force(static_cast<std::size_t>(n) * 3, 0.0);
  for (std::uint32_t m = 0; m < n; ++m) {
    for (std::uint32_t a = 0; a < 3; ++a) {
      pos[static_cast<std::size_t>(m) * 3 + a] = init_pos(m, a, n);
      vel[static_cast<std::size_t>(m) * 3 + a] = 0.01 * static_cast<double>((m + a) % 5);
    }
  }
  for (std::uint32_t step = 0; step < config.steps; ++step) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t off = 1; off <= n / 2; ++off) {
        const std::uint32_t j = (i + off) % n;
        if (n % 2 == 0 && off == n / 2 && i >= n / 2) continue;
        double f[3];
        pair_force(&pos[static_cast<std::size_t>(i) * 3],
                   &pos[static_cast<std::size_t>(j) * 3], f);
        for (std::uint32_t a = 0; a < 3; ++a) {
          force[static_cast<std::size_t>(i) * 3 + a] += f[a];
          force[static_cast<std::size_t>(j) * 3 + a] -= f[a];
        }
      }
    }
    const double dt = 1e-3;
    for (std::uint32_t m = 0; m < n; ++m) {
      for (std::uint32_t a = 0; a < 3; ++a) {
        const std::size_t k = static_cast<std::size_t>(m) * 3 + a;
        vel[k] += dt * force[k];
        pos[k] += dt * vel[k];
        force[k] = 0.0;
      }
    }
  }
  double sum = 0;
  for (double v : pos) sum += v;
  return sum;
}

}  // namespace cni::apps
