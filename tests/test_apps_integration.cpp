// End-to-end application correctness: the DSM programs must compute the same
// answers as their serial references on both board types, for a spread of
// processor counts — this exercises every layer of the stack at once.
#include <gtest/gtest.h>

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
