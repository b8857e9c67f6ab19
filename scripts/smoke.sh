#!/usr/bin/env bash
# Smoke test: configure, build, run the tier-1 suite, then exercise one
# figure sweep in fast mode. Anything here failing means the tree is not
# shippable; CI runs exactly this script.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

# CMAKE_ARGS is a space-separated flag list (e.g. "-DCNI_SANITIZE=address");
# word splitting is intentional.
# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# One end-to-end figure (fast mode trims the sweep), so a regression in the
# bench harness, the parallel runner or the engine shows up even when the
# unit suite is green. The buffer cache's cross-thread release and thread
# teardown are covered by test_buf_pool (FourThreadCrossReleaseStress,
# BufOutlivesOwningThread), which the ctest step above runs under every
# sanitizer job.
CNI_BENCH_FAST=1 "$BUILD_DIR/bench/fig02_jacobi_speedup_128"

echo "smoke: OK"
