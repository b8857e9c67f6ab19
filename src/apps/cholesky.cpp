#include "apps/cholesky.hpp"

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace cni::apps {
namespace {

struct CholeskyShared {
  mem::VAddr band = 0;     ///< column-major band storage, one stride per column
  mem::VAddr applied = 0;  ///< per-supernode update counters (u64, lock guarded)
  mem::VAddr bag = 0;      ///< the bag-of-tasks cursor (u64, bag-lock guarded)
  mem::VAddr sums = 0;
  CholeskyConfig cfg;
  std::uint32_t procs = 0;
  double* checksum_out = nullptr;
  /// Symbolic L block structure: per destination supernode its update
  /// sources, and the transpose (per source its targets).
  std::vector<std::vector<std::uint32_t>> sources;
  std::vector<std::vector<std::uint32_t>> targets;
};

constexpr std::uint32_t kBagLock = 1;
constexpr std::uint32_t kColLockBase = 10;

/// Height of column j's sub-diagonal band (clipped at the matrix edge).
std::uint32_t col_height(std::uint32_t j, const CholeskyConfig& cfg) {
  return std::min(cfg.band, cfg.n - 1 - j);
}

mem::VAddr col_addr(const CholeskyShared& sh, std::uint32_t j, std::uint32_t r_off) {
  return sh.band + static_cast<std::uint64_t>(j) * sh.cfg.stride() +
         static_cast<std::uint64_t>(r_off) * sizeof(double);
}

/// Number of supernode tasks; block b covers columns [b*B, min(n, b*B+B)).
std::uint32_t block_count(const CholeskyConfig& cfg) {
  return (cfg.n + cfg.supernode - 1) / cfg.supernode;
}

/// Can supernode src's columns structurally reach supernode dst at all
/// (band window)?
bool in_window(std::uint32_t src, std::uint32_t dst, const CholeskyConfig& cfg) {
  if (src >= dst) return false;
  const std::uint64_t last_src_col =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(src) * cfg.supernode +
                                  cfg.supernode - 1,
                              cfg.n - 1);
  return static_cast<std::uint64_t>(dst) * cfg.supernode <= last_src_col + cfg.band;
}

void cholesky_node(dsm::DsmContext& ctx, const CholeskyShared& sh) {
  const CholeskyConfig& cfg = sh.cfg;
  const std::uint32_t n = cfg.n;
  const std::uint32_t me = ctx.self();
  const std::uint32_t p = sh.procs;
  const std::uint32_t nblocks = block_count(cfg);

  // Initialization: block-distributed columns, written by their initializer.
  const std::uint32_t c0 = static_cast<std::uint32_t>(static_cast<std::uint64_t>(me) * n / p);
  const std::uint32_t c1 = static_cast<std::uint32_t>(static_cast<std::uint64_t>(me + 1) * n / p);
  for (std::uint32_t j = c0; j < c1; ++j) {
    const std::uint32_t h = col_height(j, cfg);
    for (std::uint32_t r = 0; r <= h; ++r) {
      ctx.write<double>(col_addr(sh, j, r), cholesky_matrix_entry(j + r, j, cfg));
    }
    ctx.compute(2ull * (h + 1));
  }
  if (me == 0) ctx.write<std::uint64_t>(sh.bag, 0);
  const std::uint32_t b0 =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(me) * nblocks / p);
  const std::uint32_t b1 =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(me + 1) * nblocks / p);
  for (std::uint32_t b = b0; b < b1; ++b) {
    ctx.write<std::uint64_t>(sh.applied + b * 8, 0);
  }
  ctx.barrier();

  // Bag-of-tasks main loop over supernodes.
  for (;;) {
    ctx.acquire(kBagLock);
    const std::uint64_t t = ctx.read<std::uint64_t>(sh.bag);
    ctx.write<std::uint64_t>(sh.bag, t + 1);
    ctx.release(kBagLock);
    if (t >= nblocks) break;
    const auto blk = static_cast<std::uint32_t>(t);
    const std::uint32_t lo = blk * cfg.supernode;
    const std::uint32_t hi = std::min(n, lo + cfg.supernode);
    const std::uint32_t deps = static_cast<std::uint32_t>(sh.sources[blk].size());

    // Fine-grained wait until every predecessor supernode's update landed.
    // The probe itself is lock traffic, so back off exponentially while the
    // pipeline ahead of us drains.
    std::uint64_t backoff = cfg.poll_backoff_cycles;
    for (;;) {
      ctx.acquire(kColLockBase + blk);
      const std::uint64_t done = ctx.read<std::uint64_t>(sh.applied + blk * 8);
      ctx.release(kColLockBase + blk);
      if (done >= deps) break;
      ctx.idle(backoff);
      backoff = std::min<std::uint64_t>(backoff * 2, 64 * 1024);
    }

    // Factor the supernode: each column in turn, folding its updates into
    // the block's later columns locally (we are its only writer now).
    ctx.acquire(kColLockBase + blk);
    for (std::uint32_t col = lo; col < hi; ++col) {
      const std::uint32_t h = col_height(col, cfg);
      const double d = std::sqrt(ctx.read<double>(col_addr(sh, col, 0)));
      ctx.write<double>(col_addr(sh, col, 0), d);
      for (std::uint32_t r = 1; r <= h; ++r) {
        ctx.write<double>(col_addr(sh, col, r),
                          ctx.read<double>(col_addr(sh, col, r)) / d);
      }
      ctx.compute(static_cast<std::uint64_t>(h + 1) * cfg.factor_cycles_per_element);
      for (std::uint32_t k = col + 1; k < hi && k <= col + h; ++k) {
        const double lkt = ctx.read<double>(col_addr(sh, col, k - col));
        for (std::uint32_t r = k; r <= col + h; ++r) {
          const mem::VAddr va = col_addr(sh, k, r - k);
          ctx.write<double>(
              va, ctx.read<double>(va) -
                      ctx.read<double>(col_addr(sh, col, r - col)) * lkt);
        }
        ctx.compute(static_cast<std::uint64_t>(col + h - k + 1) *
                    cfg.update_cycles_per_element);
      }
    }
    ctx.release(kColLockBase + blk);

    // Snapshot the factored supernode privately, then push its right-looking
    // updates into each following supernode under that block's lock — one
    // lock acquisition per (source task, target supernode) pair.
    std::vector<std::vector<double>> lcols(hi - lo);
    for (std::uint32_t col = lo; col < hi; ++col) {
      const std::uint32_t h = col_height(col, cfg);
      lcols[col - lo].resize(h + 1);
      for (std::uint32_t r = 0; r <= h; ++r) {
        lcols[col - lo][r] = ctx.read<double>(col_addr(sh, col, r));
        ctx.add_answer(lcols[col - lo][r]);  // final: no later task writes it
      }
    }
    for (const std::uint32_t dst : sh.targets[blk]) {
      const std::uint32_t dlo = dst * cfg.supernode;
      const std::uint32_t dhi = std::min(n, dlo + cfg.supernode);
      ctx.acquire(kColLockBase + dst);
      for (std::uint32_t col = lo; col < hi; ++col) {
        const std::uint32_t h = col_height(col, cfg);
        const std::vector<double>& lcol = lcols[col - lo];
        for (std::uint32_t k = std::max(dlo, col + 1); k < dhi && k <= col + h; ++k) {
          const double lkt = lcol[k - col];
          for (std::uint32_t r = k; r <= col + h; ++r) {
            const mem::VAddr va = col_addr(sh, k, r - k);
            ctx.write<double>(va, ctx.read<double>(va) - lcol[r - col] * lkt);
          }
          ctx.compute(static_cast<std::uint64_t>(col + h - k + 1) *
                      cfg.update_cycles_per_element);
        }
      }
      const mem::VAddr cva = sh.applied + dst * 8;
      ctx.write<std::uint64_t>(cva, ctx.read<std::uint64_t>(cva) + 1);
      ctx.release(kColLockBase + dst);
    }
  }
  ctx.barrier();

  // Checksum: node 0 walks the factor in deterministic column order.
  if (me == 0 && sh.checksum_out != nullptr) {
    double sum = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t h = col_height(j, cfg);
      for (std::uint32_t r = 0; r <= h; ++r) sum += ctx.read<double>(col_addr(sh, j, r));
    }
    *sh.checksum_out = sum;
  }
  ctx.barrier();
}

}  // namespace

bool cholesky_a_coupled(std::uint32_t src, std::uint32_t dst, const CholeskyConfig& cfg) {
  CNI_CHECK(src <= dst);
  if (src == dst) return true;
  // No forced chain: the real matrices' elimination structure is tree-like,
  // wide enough for the bag of tasks to find independent supernodes.
  util::SplitMix64 rng((static_cast<std::uint64_t>(src) << 32) ^ dst ^
                       (static_cast<std::uint64_t>(cfg.n) << 17));
  return rng.next_below(100) < cfg.coupling_pct;
}

double cholesky_matrix_entry(std::uint32_t r, std::uint32_t c, const CholeskyConfig& cfg) {
  CNI_CHECK(r >= c && r - c <= cfg.band && r < cfg.n);
  if (r == c) {
    // Diagonal dominance guarantees positive-definiteness: each off-diagonal
    // magnitude is < 1/(1+distance), and there are at most 2*band of them.
    return 2.5 * static_cast<double>(cfg.band) + 2.0 +
           0.01 * static_cast<double>(r % 17);
  }
  // Sparse within the profile: uncoupled supernode pairs hold zeros, like
  // the real bcsstk matrices (see cholesky_block_structure for the fill).
  if (!cholesky_a_coupled(c / cfg.supernode, r / cfg.supernode, cfg)) return 0.0;
  // Deterministic pseudo-random band entry in (-1, 1) scaled by distance.
  util::SplitMix64 rng((static_cast<std::uint64_t>(r) << 32) | c);
  const double u = rng.next_double(-1.0, 1.0);
  return u / (1.0 + static_cast<double>(r - c));
}

std::vector<std::vector<std::uint32_t>> cholesky_block_structure(const CholeskyConfig& cfg) {
  const std::uint32_t nb = block_count(cfg);
  // nz[dst] = set of src < dst with L(dst, src) structurally nonzero:
  // A couplings plus symbolic fill (if k updates both i and j with j < i,
  // then j updates i). Always a superset of the numeric nonzero structure.
  std::vector<std::set<std::uint32_t>> nz(nb);
  for (std::uint32_t dst = 0; dst < nb; ++dst) {
    for (std::uint32_t src = 0; src < dst; ++src) {
      if (in_window(src, dst, cfg) && cholesky_a_coupled(src, dst, cfg)) {
        nz[dst].insert(src);
      }
    }
  }
  for (std::uint32_t k = 0; k < nb; ++k) {
    std::vector<std::uint32_t> children;
    for (std::uint32_t i = k + 1; i < nb && in_window(k, i, cfg); ++i) {
      if (nz[i].count(k) != 0) children.push_back(i);
    }
    for (std::size_t a = 0; a < children.size(); ++a) {
      for (std::size_t b = a + 1; b < children.size(); ++b) {
        if (in_window(children[a], children[b], cfg)) {
          nz[children[b]].insert(children[a]);
        }
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> sources(nb);
  for (std::uint32_t dst = 0; dst < nb; ++dst) {
    sources[dst].assign(nz[dst].begin(), nz[dst].end());
  }
  return sources;
}

RunResult run_cholesky(const cluster::SimParams& params, const CholeskyConfig& config,
                       double* checksum) {
  return run_app<CholeskyShared>(
      params,
      [&](dsm::DsmSystem& dsmsys) {
        CholeskyShared sh;
        sh.cfg = config;
        sh.procs = params.processors;
        sh.checksum_out = checksum;
        const std::uint64_t band_bytes =
            static_cast<std::uint64_t>(config.n) * config.stride();
        sh.band = dsmsys.alloc_blocked(band_bytes, "cholesky-band");
        sh.applied = dsmsys.alloc_blocked(static_cast<std::uint64_t>(config.n) * 8,
                                          "cholesky-applied");
        sh.bag = dsmsys.alloc_at(8, "cholesky-bag", 0);
        sh.sums = dsmsys.alloc_at(params.processors * 8, "cholesky-sums", 0);
        sh.sources = cholesky_block_structure(config);
        sh.targets.resize(sh.sources.size());
        for (std::uint32_t dst = 0; dst < sh.sources.size(); ++dst) {
          for (const std::uint32_t src : sh.sources[dst]) sh.targets[src].push_back(dst);
        }
        return sh;
      },
      cholesky_node);
}

double cholesky_reference_checksum(const CholeskyConfig& cfg) {
  const std::uint32_t n = cfg.n;
  const std::uint32_t bw = cfg.band;
  std::vector<double> a(static_cast<std::size_t>(n) * (bw + 1), 0.0);
  auto at = [&](std::uint32_t r, std::uint32_t c) -> double& {
    return a[static_cast<std::size_t>(c) * (bw + 1) + (r - c)];
  };
  for (std::uint32_t c = 0; c < n; ++c) {
    for (std::uint32_t r = c; r <= std::min(n - 1, c + bw); ++r) {
      at(r, c) = cholesky_matrix_entry(r, c, cfg);
    }
  }
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t h = std::min(bw, n - 1 - t);
    const double d = std::sqrt(at(t, t));
    at(t, t) = d;
    for (std::uint32_t r = t + 1; r <= t + h; ++r) at(r, t) /= d;
    for (std::uint32_t k = t + 1; k <= t + h; ++k) {
      for (std::uint32_t r = k; r <= t + h; ++r) at(r, k) -= at(r, t) * at(k, t);
    }
  }
  double sum = 0;
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t r = j; r <= std::min(n - 1, j + bw); ++r) sum += at(r, j);
  }
  return sum;
}

}  // namespace cni::apps
