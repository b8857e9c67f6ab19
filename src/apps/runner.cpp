#include "apps/runner.hpp"

#include <atomic>
#include <exception>
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

void parallel_indexed(std::size_t n, util::FunctionRef<void(std::size_t)> fn) {
  const std::size_t jobs = std::min(sweep_jobs(), n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
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
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace cni::apps
