#!/bin/sh
# Pre-merge gate: one command that runs everything reviewers rely on.
#
#   1. strict build      -Wall -Wextra -Wconversion -Wshadow -Werror (the
#                        project default) plus the full test suite
#   2. sanitizer build   ASan+UBSan, replaying the fuzz corpus and the whole
#                        test suite so memory bugs fail CI deterministically
#   3. TSan build        ThreadSanitizer over the concurrency suite
#                        (`ctest -L tsan`: thread-pool stress tests, the
#                        parallel analysis pipeline under contention, the
#                        table-vs-referee equivalence suite on the pool,
#                        and the serve layer under concurrent socket clients)
#   4. static concurrency gates (skip with ROOTSTORE_SKIP_STATIC=1)
#                        a) tools/check_concurrency.sh — structural
#                           lock-discipline lint (naked std::mutex, detach,
#                           unexplained relaxed atomics); always enforced
#                        b) clang -Wthread-safety -Werror build proving the
#                           RS_GUARDED_BY/RS_REQUIRES annotations, plus the
#                           negative-compile check at configure time
#                           (skipped with a notice when clang is missing)
#                        c) clang static analyzer over src/ against the
#                           empty baseline in tools/analyzer_baseline.txt
#                           (skipped with a notice when clang is missing)
#   5. lint              clang-tidy via tools/run_lint.sh (skipped with a
#                        notice when clang-tidy is not installed)
#   6. benches           records the 1-vs-N worker scaling sweep into
#                        BENCH_parallel.json, the observability-overhead
#                        sweep into BENCH_obs.json,
#                        the threaded-vs-epoll serve transport comparison
#                        into BENCH_serve.json — gated same-run: epoll at
#                        64 connections must hold >= 0.7x the threaded
#                        4-connection miss throughput, and batch-16 must
#                        amortize >= 2x the singleton hit throughput —
#                        the persisted-index cold-start/append
#                        speedups into BENCH_incremental.json, gated
#                        against the docs/PERSISTENCE.md floors (load >=
#                        20x rebuild, append-one >= 10x full recompute),
#                        the chain-verification sweep into
#                        BENCH_verify.json, gated on the breakpoint
#                        temporal scan beating the day-by-day scan >= 5x,
#                        and the landscape agreement-matrix comparison
#                        into BENCH_landscape.json, gated on the IdSet
#                        matrix beating the naive FingerprintSet scan
#                        >= 5x (skip with ROOTSTORE_SKIP_BENCH=1)
#   7. coverage          gcov build + full suite, enforcing the src/ line
#                        coverage floor in tools/coverage_baseline.txt
#                        (skip with ROOTSTORE_SKIP_COVERAGE=1)
#
# Usage: tools/ci_check.sh [jobs]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs="${1:-$(nproc 2>/dev/null || echo 4)}"

echo "=== [1/7] strict -Werror build + tests ==="
cmake -B "$repo_root/build" -S "$repo_root" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$repo_root/build" -j "$jobs"
ctest --test-dir "$repo_root/build" --output-on-failure -j "$jobs"

echo "=== [2/7] ASan/UBSan build + corpus regression ==="
cmake -B "$repo_root/build-asan" -S "$repo_root" \
      -DROOTSTORE_SANITIZE=address,undefined >/dev/null
cmake --build "$repo_root/build-asan" -j "$jobs"
ctest --test-dir "$repo_root/build-asan" --output-on-failure -j "$jobs"

echo "=== [3/7] TSan build + concurrency suite ==="
cmake -B "$repo_root/build-tsan" -S "$repo_root" \
      -DROOTSTORE_SANITIZE=thread >/dev/null
cmake --build "$repo_root/build-tsan" -j "$jobs" \
      --target exec_tests --target intern_equivalence_tests \
      --target obs_tests --target query_property_tests --target serve_tests \
      --target thread_annotations_tests --target verify_property_tests \
      --target landscape_property_tests
ctest --test-dir "$repo_root/build-tsan" --output-on-failure -L tsan

if [ "${ROOTSTORE_SKIP_STATIC:-0}" = "1" ]; then
  echo "=== [4/7] static concurrency gates: SKIPPED (ROOTSTORE_SKIP_STATIC=1) ==="
else
  echo "=== [4/7] static concurrency gates ==="
  "$repo_root/tools/check_concurrency.sh"
  clangxx=""
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
                   clang++-15 clang++-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      clangxx="$candidate"
      break
    fi
  done
  if [ -z "$clangxx" ]; then
    echo "thread-safety build: SKIPPED (clang++ not installed; gcc has no" \
         "thread-safety analysis — the proof runs on clang builders)"
  else
    # -Wthread-safety rides in via rs_harden (cmake/Hardening.cmake); the
    # configure step also runs the negative-compile check asserting that a
    # guarded access without its MutexLock fails the build.
    cmake -B "$repo_root/build-tsa" -S "$repo_root" \
          -DCMAKE_CXX_COMPILER="$clangxx" >/dev/null
    cmake --build "$repo_root/build-tsa" -j "$jobs"
  fi
  "$repo_root/tools/run_analyzer.sh"
fi

echo "=== [5/7] clang-tidy ==="
"$repo_root/tools/run_lint.sh" "$repo_root/build"

if [ "${ROOTSTORE_SKIP_BENCH:-0}" = "1" ]; then
  echo "=== [6/7] benches: SKIPPED (ROOTSTORE_SKIP_BENCH=1) ==="
else
  echo "=== [6/7] benches -> BENCH_parallel/obs/serve/incremental/verify/landscape.json ==="
  cmake --build "$repo_root/build" -j "$jobs" --target perf_analysis \
        --target perf_persist --target perf_verify --target perf_landscape \
        --target rootstore --target serve_loadgen
  "$repo_root/tools/record_parallel_bench.sh" "$repo_root/build"
  "$repo_root/tools/record_obs_bench.sh" "$repo_root/build"
  "$repo_root/tools/record_serve_bench.sh" "$repo_root/build"
  "$repo_root/tools/record_incremental_bench.sh" "$repo_root/build"
  "$repo_root/tools/record_verify_bench.sh" "$repo_root/build"
  "$repo_root/tools/record_landscape_bench.sh" "$repo_root/build"
fi

if [ "${ROOTSTORE_SKIP_COVERAGE:-0}" = "1" ]; then
  echo "=== [7/7] coverage: SKIPPED (ROOTSTORE_SKIP_COVERAGE=1) ==="
else
  echo "=== [7/7] coverage gate (tools/coverage_baseline.txt) ==="
  "$repo_root/tools/check_coverage.sh" "$repo_root/build-cov" "$jobs"
fi

echo "ci_check: all gates passed"
