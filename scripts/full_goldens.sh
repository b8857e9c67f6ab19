#!/usr/bin/env bash
# Paper-scale figure baselines. Runs every fig/tab binary plus
# abl_mechanisms and fig_barrier_scaling at full size and compares each
# stdout byte for byte with tests/golden/full/<binary>.out, the files
# EXPERIMENTS.md takes its numbers from. About a minute on 4 cores; ctest
# does not run it (its fast-mode goldens are tests/golden/<binary>.out).
#
#   scripts/full_goldens.sh [BUILD_DIR]           compare; exit 1 on any difference
#   scripts/full_goldens.sh --update [BUILD_DIR]  rewrite the files from BUILD_DIR
#
# BUILD_DIR defaults to build and must hold the built bench/ binaries. The
# sweep pool runs CNI_BENCH_JOBS workers (default 4); the output does not
# depend on it. A change that moves a number on purpose regenerates the
# files, updates EXPERIMENTS.md in the same change and says why.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
BUILD_DIR="${1:-build}"
GOLDEN_DIR=tests/golden/full

BINARIES=(
  tab01_params fig02_jacobi_speedup_128 fig03_jacobi_speedup_256
  fig04_jacobi_speedup_1024 fig05_jacobi_pagesize tab02_jacobi_overhead
  fig06_water_speedup_64 fig07_water_speedup_216 fig08_water_speedup_343
  fig09_water_pagesize tab03_water_overhead fig10_cholesky_bcsstk14
  fig11_cholesky_bcsstk15 fig12_cholesky_pagesize tab04_cholesky_overhead
  fig13_mcache_size fig14_latency_micro fig_barrier_scaling tab05_cellsize
  abl_mechanisms
)

# The fast goldens' pinned environment (tests/CMakeLists.txt) at full size,
# so the ambient environment cannot move the bytes.
export CNI_BENCH_FAST=0 CNI_BENCH_JOBS="${CNI_BENCH_JOBS:-4}" CNI_COLLECTIVE=host \
  CNI_TRACE=0 CNI_TRACE_CAPACITY=4096 CNI_LOG_LEVEL=1 CNI_LOG_JSON=0

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

failed=0
for bin in "${BINARIES[@]}"; do
  start=$SECONDS
  if ! "$BUILD_DIR/bench/$bin" > "$out_dir/$bin.out"; then
    echo "FAIL $bin: exited nonzero"
    failed=1
    continue
  fi
  if [[ $update == 1 ]]; then
    mkdir -p "$GOLDEN_DIR"
    cp "$out_dir/$bin.out" "$GOLDEN_DIR/$bin.out"
    echo "wrote $GOLDEN_DIR/$bin.out ($((SECONDS - start)) s)"
  elif cmp -s "$GOLDEN_DIR/$bin.out" "$out_dir/$bin.out"; then
    echo "ok   $bin ($((SECONDS - start)) s)"
  else
    echo "FAIL $bin: stdout differs from $GOLDEN_DIR/$bin.out"
    diff "$GOLDEN_DIR/$bin.out" "$out_dir/$bin.out" | head -20 || true
    failed=1
  fi
done

if [[ $failed != 0 ]]; then
  echo "full goldens: FAILED"
  exit 1
fi
echo "full goldens: OK"
