// End-to-end application correctness: the DSM programs must compute the same
// answers as their serial references on both board types, for a spread of
// processor counts — this exercises every layer of the stack at once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "apps/water.hpp"

namespace cni::apps {
namespace {

using cluster::BoardKind;

TEST(JacobiIntegration, SerialMatchesReference) {
  JacobiConfig cfg{16, 4, 6};
  double sum = 0;
  run_jacobi(make_params(BoardKind::kCni, 1), cfg, &sum);
  EXPECT_DOUBLE_EQ(sum, jacobi_reference_checksum(cfg));
}

TEST(JacobiIntegration, OneGridReferenceMatchesTwoGridSweepBitForBit) {
  // The textbook reference: sweep grid a into grid b, copy b's interior
  // back. jacobi_reference_checksum sweeps one grid in place instead.
  const auto two_grid = [](const JacobiConfig& cfg) {
    const std::size_t n = cfg.n;
    std::vector<double> a(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const bool edge = i == 0 || j == 0 || i == n - 1 || j == n - 1;
        a[i * n + j] = edge ? 1.0 + 0.25 * static_cast<double>((i + j) % 7) : 0.0;
      }
    }
    std::vector<double> b = a;
    for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
      for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
          b[i * n + j] = 0.25 * (a[(i - 1) * n + j] + a[(i + 1) * n + j] +
                                 a[i * n + j - 1] + a[i * n + j + 1]);
        }
      }
      for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) a[i * n + j] = b[i * n + j];
      }
    }
    double sum = 0;
    for (const double v : a) sum += v;
    return sum;
  };
  constexpr std::pair<std::uint32_t, std::uint32_t> kCases[] = {{8, 3}, {64, 5}, {256, 20}};
  for (const auto& [n, iterations] : kCases) {
    const JacobiConfig cfg{n, iterations, 6};
    EXPECT_EQ(std::bit_cast<std::uint64_t>(jacobi_reference_checksum(cfg)),
              std::bit_cast<std::uint64_t>(two_grid(cfg)))
        << "n=" << n << " iterations=" << iterations;
  }
}

TEST(JacobiIntegration, CniMatchesReferenceAcrossProcs) {
  JacobiConfig cfg{24, 3, 6};
  const double ref = jacobi_reference_checksum(cfg);
  for (std::uint32_t p : {2u, 3u, 4u}) {
    double sum = 0;
    run_jacobi(make_params(BoardKind::kCni, p), cfg, &sum);
    EXPECT_NEAR(sum, ref, std::abs(ref) * 1e-12) << "p=" << p;
  }
}

TEST(JacobiIntegration, StandardBoardComputesSameAnswer) {
  JacobiConfig cfg{24, 3, 6};
  double cni_sum = 0;
  double std_sum = 0;
  run_jacobi(make_params(BoardKind::kCni, 4), cfg, &cni_sum);
  run_jacobi(make_params(BoardKind::kStandard, 4), cfg, &std_sum);
  EXPECT_DOUBLE_EQ(cni_sum, std_sum);
}

TEST(JacobiIntegration, CniIsFasterThanStandard) {
  JacobiConfig cfg{32, 4, 6};
  const RunResult cni = run_jacobi(make_params(BoardKind::kCni, 4), cfg, nullptr);
  const RunResult std_ = run_jacobi(make_params(BoardKind::kStandard, 4), cfg, nullptr);
  EXPECT_LT(cni.elapsed, std_.elapsed);
}

TEST(WaterIntegration, MatchesReference) {
  WaterConfig cfg{27, 2};
  const double ref = water_reference_checksum(cfg);
  for (std::uint32_t p : {1u, 2u, 4u}) {
    double sum = 0;
    run_water(make_params(BoardKind::kCni, p), cfg, &sum);
    EXPECT_NEAR(sum, ref, std::abs(ref) * 1e-6) << "p=" << p;
  }
}

TEST(WaterIntegration, StandardBoardMatchesReference) {
  WaterConfig cfg{27, 2};
  const double ref = water_reference_checksum(cfg);
  double sum = 0;
  run_water(make_params(BoardKind::kStandard, 3), cfg, &sum);
  EXPECT_NEAR(sum, ref, std::abs(ref) * 1e-6);
}

TEST(CholeskyIntegration, MatchesReference) {
  CholeskyConfig cfg{64, 8, 2, 3};
  const double ref = cholesky_reference_checksum(cfg);
  for (std::uint32_t p : {1u, 2u, 4u}) {
    double sum = 0;
    run_cholesky(make_params(BoardKind::kCni, p), cfg, &sum);
    EXPECT_NEAR(sum, ref, std::abs(ref) * 1e-6) << "p=" << p;
  }
}

TEST(CholeskyIntegration, StandardBoardMatchesReference) {
  CholeskyConfig cfg{64, 8, 2, 3};
  const double ref = cholesky_reference_checksum(cfg);
  double sum = 0;
  run_cholesky(make_params(BoardKind::kStandard, 2), cfg, &sum);
  EXPECT_NEAR(sum, ref, std::abs(ref) * 1e-6);
}

// RunResult::answer sums each node's DsmContext::add_answer tally in node
// order, at no simulated cost. It is the same whether or not node 0's
// simulated gather runs, and it agrees with the gathered checksum: bit for bit
// where the gather adds the same per-node partials (Jacobi, Water), to
// rounding where it re-adds every factor entry in column order (Cholesky).
TEST(AppAnswers, HostAnswerMatchesGatheredChecksum) {
  const auto check = [](auto run, const auto& cfg, std::uint32_t p, double rel_tol) {
    double gathered = 0;
    const RunResult with = run(make_params(BoardKind::kCni, p), cfg, &gathered);
    const RunResult without = run(make_params(BoardKind::kCni, p), cfg, nullptr);
    EXPECT_EQ(with.answer, without.answer);
    EXPECT_NEAR(with.answer, gathered, std::abs(gathered) * rel_tol);
  };
  check(run_jacobi, JacobiConfig{24, 3, 6}, 4, 0.0);
  check(run_water, WaterConfig{27, 2}, 3, 0.0);
  check(run_cholesky, CholeskyConfig{64, 8, 2, 3}, 4, 1e-12);
}

TEST(Determinism, SameSeedSameResult) {
  JacobiConfig cfg{24, 3, 6};
  const RunResult a = run_jacobi(make_params(BoardKind::kCni, 4), cfg, nullptr);
  const RunResult b = run_jacobi(make_params(BoardKind::kCni, 4), cfg, nullptr);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.totals.messages_sent, b.totals.messages_sent);
  EXPECT_EQ(a.totals.mcache_tx_hits, b.totals.mcache_tx_hits);
}

}  // namespace
}  // namespace cni::apps
