// SIGPROF sampler for attributing host time to the simulator's layers.
//
// Preload it into any binary; nothing links it:
//
//   LD_PRELOAD=build/tools/libcni_layer_prof.so build/bench/fig06_water_speedup_64
//   python3 scripts/profile_layers.py layer_prof.*.out
//
// An ITIMER_PROF timer (process CPU time, all threads) raises SIGPROF; the
// handler stores the interrupted PC and the return addresses above it. At
// exit the samples, the executable's path and /proc/self/maps go to
// layer_prof.<pid>.out in the working directory. Symbolizing happens
// offline, in profile_layers.py, so the handler only copies addresses.
//
// backtrace() loads its unwinder (and allocates) on first use, which a
// signal handler must not do, so the constructor calls it once before the
// timer starts. Samples arrive at the kernel's tick rate (≈ 250 Hz on the
// hosts measured so far) whatever interval is asked for; use runs of ≥ 2 s.
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>

namespace {

constexpr int kDepth = 32;                 // frames kept per sample
constexpr std::size_t kSamples = 1 << 17;  // ≈ 8 min of CPU time at 250 Hz

struct Sample {
  int depth;
  void* pc[kDepth];
};

Sample g_samples[kSamples];  // zero pages until a sample lands: costs no RSS up front
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};

void on_sigprof(int, siginfo_t*, void* uc) {
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = g_samples[i];
  // The interrupted PC comes from the signal context; backtrace() supplies
  // the callers above it (after this handler and the signal trampoline).
  const auto pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(uc)->uc_mcontext.gregs[REG_RIP]);
  void* frames[kDepth + 2];
  const int n = backtrace(frames, kDepth + 2);
  int k = 0;
  while (k < n && frames[k] != pc) ++k;
  s.pc[0] = pc;
  int d = 1;
  for (int j = k + 1; j < n && d < kDepth; ++j) s.pc[d++] = frames[j];
  s.depth = d;
  errno = saved_errno;
}

__attribute__((constructor)) void start() {
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval every_ms{{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void finish() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof path, "layer_prof.%d.out", static_cast<int>(getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  const std::size_t taken = std::min(g_next.load(), kSamples);
  std::fprintf(f, "# layer_prof v1\nexe %s\nsamples %zu\ndropped %zu\n", exe, taken,
               g_dropped.load());
  for (std::size_t i = 0; i < taken; ++i) {
    std::fputc('S', f);
    for (int d = 0; d < g_samples[i].depth; ++d) std::fprintf(f, " %p", g_samples[i].pc[d]);
    std::fputc('\n', f);
  }
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r"); maps != nullptr) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fprintf(f, "M %s", line);
    std::fclose(maps);
  }
  std::fclose(f);
}

}  // namespace
