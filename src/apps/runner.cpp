#include "apps/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cli.hpp"

namespace cni::apps {

std::size_t sweep_jobs() {
  if (const auto v = util::env_count("CNI_BENCH_JOBS", 1)) return *v;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::uint64_t max_map_count() {
  std::uint64_t limit = 0;
  std::ifstream in("/proc/sys/vm/max_map_count");
  return in >> limit && limit > 0 ? limit : 65'530;
}

std::size_t map_bounded_jobs(std::uint64_t map_limit, std::uint64_t nodes,
                             std::size_t jobs) {
  constexpr std::uint64_t kMapsPerWorker = 64;
  const std::uint64_t fit = (map_limit - map_limit / 8) / (2 * nodes + kMapsPerWorker);
  return std::clamp<std::size_t>(static_cast<std::size_t>(fit), 1,
                                 std::max<std::size_t>(jobs, 1));
}

void parallel_indexed(std::size_t n, std::size_t jobs,
                      util::FunctionRef<void(std::size_t)> fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t j = 1; j < std::min(jobs, n); ++j) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace cni::apps
