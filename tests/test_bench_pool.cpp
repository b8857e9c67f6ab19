// The bench harness (bench/bench_common.hpp): the sweep pool every figure
// binary runs its points through, and the one command-line parse.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "atm/topology.hpp"
#include "bench_common.hpp"
#include "cluster/params.hpp"

namespace cni::bench {
namespace {

/// Pins CNI_BENCH_JOBS for one scope, then restores it.
class ScopedJobs {
 public:
  explicit ScopedJobs(const char* jobs) {
    if (const char* old = std::getenv("CNI_BENCH_JOBS")) old_ = old;
    ::setenv("CNI_BENCH_JOBS", jobs, 1);
  }
  ScopedJobs(const ScopedJobs&) = delete;
  ScopedJobs& operator=(const ScopedJobs&) = delete;
  ~ScopedJobs() {
    if (old_) {
      ::setenv("CNI_BENCH_JOBS", old_->c_str(), 1);
    } else {
      ::unsetenv("CNI_BENCH_JOBS");
    }
  }

 private:
  std::optional<std::string> old_;
};

TEST(BenchPool, ResultsLandByIndexWhateverOrderJobsFinish) {
  // Four workers for four jobs, so all run at once; job i waits for job
  // i + 1 to end, which makes them finish in reverse.
  const ScopedJobs jobs_env("4");
  constexpr std::size_t kJobs = 4;
  std::atomic<bool> ended[kJobs] = {};
  std::mutex mu;
  std::vector<std::size_t> finish_order;
  std::vector<Job<int>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back({static_cast<std::uint32_t>(2 + i % 2), [&, i] {
                      const auto give_up =
                          std::chrono::steady_clock::now() + std::chrono::seconds(10);
                      while (i + 1 < kJobs && !ended[i + 1] &&
                             std::chrono::steady_clock::now() < give_up) {
                        std::this_thread::yield();
                      }
                      const std::lock_guard<std::mutex> lock(mu);
                      finish_order.push_back(i);
                      ended[i] = true;
                      return static_cast<int>(10 * i);
                    }});
  }
  EXPECT_EQ(run_points(jobs), (std::vector<int>{0, 10, 20, 30}));
  EXPECT_EQ(finish_order, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(BenchPool, LargestClustersStartFirst) {
  const ScopedJobs jobs_env("1");
  const std::uint32_t nodes[] = {2, 16, 4, 16, 8};
  std::vector<std::size_t> started;
  std::vector<Job<std::uint32_t>> jobs;
  for (std::size_t i = 0; i < std::size(nodes); ++i) {
    jobs.push_back({nodes[i], [&, i] {
                      started.push_back(i);
                      return nodes[i];
                    }});
  }
  EXPECT_EQ(run_points(jobs), (std::vector<std::uint32_t>{2, 16, 4, 16, 8}));
  // Equal sizes keep their order.
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 3, 4, 2, 0}));
}

TEST(BenchPool, FirstExceptionIsRethrownAfterEveryJobHasEnded) {
  for (const char* workers : {"1", "4"}) {
    const ScopedJobs jobs_env(workers);
    std::atomic<int> ended{0};
    std::vector<Job<int>> jobs;
    // The largest job starts first and throws at once; a later one throws
    // only after the others have had time to start.
    jobs.push_back({64, []() -> int { throw std::runtime_error("first"); }});
    for (int i = 0; i < 5; ++i) {
      jobs.push_back({8, [&] {
                        std::this_thread::sleep_for(std::chrono::milliseconds(20));
                        ++ended;
                        return 0;
                      }});
    }
    jobs.push_back({2, []() -> int {
                      std::this_thread::sleep_for(std::chrono::milliseconds(50));
                      throw std::runtime_error("second");
                    }});
    try {
      (void)run_points(jobs);
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first") << workers << " workers";
    }
    EXPECT_EQ(ended.load(), 5) << workers << " workers";
  }
}

TEST(BenchPool, MapBoundIsAPureFunctionOfLimitNodesAndJobs) {
  constexpr std::uint64_t kDefaultLimit = 65'530;  // Linux's vm.max_map_count
  // Nine 4096-node clusters would need ≈ 74 K mappings; six fit.
  EXPECT_EQ(apps::map_bounded_jobs(kDefaultLimit, 4096, 9), 6u);
  // Below the bound the job count stands.
  EXPECT_EQ(apps::map_bounded_jobs(kDefaultLimit, 4096, 4), 4u);
  EXPECT_EQ(apps::map_bounded_jobs(kDefaultLimit, 64, 64), 64u);
  // A single cluster over the limit still runs (and fails loudly in mmap).
  EXPECT_EQ(apps::map_bounded_jobs(1'000, 4096, 8), 1u);
  EXPECT_EQ(apps::map_bounded_jobs(kDefaultLimit, 8, 0), 1u);
  // A larger limit admits more clusters, never fewer.
  std::size_t last = 1;
  for (std::uint64_t limit = 8'192; limit <= 1'048'576; limit *= 2) {
    const std::size_t cap = apps::map_bounded_jobs(limit, 4096, 1'000);
    EXPECT_GE(cap, last);
    // Whatever the cap, its clusters' fiber stacks (two mappings per node)
    // leave an eighth of the limit free once more than one runs.
    if (cap > 1) {
      EXPECT_LE(cap * 2 * 4096, limit - limit / 8);
    }
    last = cap;
  }
}

TEST(BenchArgs, InstallsTheDefaultsAndRecordsThem) {
  const char* argv[] = {"bench", "--collective=nic", "--ports=64", "--topology=torus",
                        "--nodes=8", "--json"};
  const Args args = parse_args(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv), "bench",
                               kFigureFlags | kScaleFlags);
  EXPECT_EQ(cluster::default_collective(), cluster::CollectiveMode::kNic);
  EXPECT_EQ(atm::default_topology(), atm::TopologyKind::kTorus);
  EXPECT_EQ(atm::default_switch_ports(), 64u);
  EXPECT_EQ(args.topology, atm::TopologyKind::kTorus);
  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.nodes, 8u);
  EXPECT_EQ(args.rounds, 0u);
  EXPECT_FALSE(args.report.active());
  cluster::set_default_collective(cluster::CollectiveMode::kHost);
  atm::set_default_fabric_shape(atm::TopologyKind::kBanyan, 32);
}

TEST(BenchArgsDeathTest, RejectsWhatItDoesNotTakeBeforeAnythingRuns) {
  const auto parse = [](std::vector<const char*> argv, unsigned sets) {
    argv.insert(argv.begin(), "bench");
    (void)parse_args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
                     "bench", sets);
  };
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--ports=3"}, kFigureFlags), exits_2, "invalid --ports=3 ");
  EXPECT_EXIT(parse({"--collective=tree"}, kFigureFlags), exits_2,
              "unknown collective mode 'tree'");
  EXPECT_EXIT(parse({"--topology=ring"}, kFigureFlags), exits_2,
              "unknown topology 'ring'");
  EXPECT_EXIT(parse({"--metrics-out="}, kFigureFlags), exits_2,
              "missing file name in '--metrics-out='");
  EXPECT_EXIT(parse({"--rounds=0"}, kScaleFlags), exits_2,
              "invalid value in '--rounds=0'");
  // Each binary takes only its own sets.
  EXPECT_EXIT(parse({"--json"}, kFigureFlags), exits_2, "unknown argument '--json'");
  EXPECT_EXIT(parse({"--metrics-out=m.json"}, kScaleFlags), exits_2,
              "unknown argument '--metrics-out=m.json'");
  EXPECT_EXIT(parse({"--help"}, kScaleFlags), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace cni::bench
