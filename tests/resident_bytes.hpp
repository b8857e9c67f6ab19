// The test process's resident set, current and peak, for tests that bound
// host memory.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>

namespace cni::test_support {

/// The process's resident set in bytes (/proc/self/statm, second field).
inline std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// The process's peak resident set in bytes (VmHWM in /proc/self/status).
inline std::uint64_t peak_resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kb = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
  }
  return kb * 1024;
}

}  // namespace cni::test_support
