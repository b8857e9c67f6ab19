// Jacobi iteration (paper §3.1: coarse-grained benchmark).
//
// "Jacobi is a coarse-grained application with two major synchronization
// points per iteration and a high computation/communication ratio. Each
// point in the strip is iteratively calculated from the values of its
// neighbors." Strips of rows are block-distributed; each iteration computes
// next from current, barriers, copies back, and barriers again. Only the
// strip-boundary rows are communicated, via DSM page faults.
#pragma once

#include <cstdint>

#include "apps/runner.hpp"

namespace cni::apps {

struct JacobiConfig {
  std::uint32_t n = 128;          ///< matrix is n x n doubles
  std::uint32_t iterations = 20;
  std::uint32_t flops_cycles_per_point = 6;  ///< ALU charge per stencil point
};

/// Runs Jacobi on a cluster built from `params`. The returned checksum (sum
/// over the final grid, computed at node 0) lets tests compare CNI/standard
/// runs and a serial reference for bit-equal results.
RunResult run_jacobi(const cluster::SimParams& params, const JacobiConfig& config,
                     double* checksum = nullptr);

/// Serial reference implementation (no simulation) for validation.
double jacobi_reference_checksum(const JacobiConfig& config);

}  // namespace cni::apps
