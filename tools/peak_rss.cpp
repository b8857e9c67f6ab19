// Runs a command and records its peak resident set.
//
// Usage: cni_peak_rss OUT COMMAND [ARG...]
//
// Forks, runs COMMAND (searched on PATH) with execvp, waits for it with
// wait4, and writes "<ru_maxrss in KiB> <status>" to the file OUT, where
// status is the command's exit code, or minus the signal that ended it.
// Exits with the command's exit code (128 + the signal), or 2 if the
// command could not be waited for or OUT could not be written.
//
// A child's ru_maxrss counts the pages its process held before exec, so the
// launching process's resident set is the floor of every reading: about
// 1 MB for this C-library program, about 17 MB for a Python interpreter.
// scripts/bench_engine.py runs each timed binary through it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cni_peak_rss OUT COMMAND [ARG...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("cni_peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::fprintf(stderr, "cni_peak_rss: cannot run %s: %s\n", argv[2], std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("cni_peak_rss: wait4");
      return 2;
    }
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  const bool written = out != nullptr && std::fprintf(out, "%ld %d\n", usage.ru_maxrss, code) > 0;
  if (out == nullptr || std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cni_peak_rss: cannot write %s\n", argv[1]);
    return 2;
  }
  return code >= 0 ? code : 128 - code;
}
