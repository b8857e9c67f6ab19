// The test process's resident set, for tests that bound host memory.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <fstream>

namespace cni::test_support {

/// The process's resident set in bytes (/proc/self/statm, second field).
inline std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace cni::test_support
