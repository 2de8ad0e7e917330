#!/bin/sh
# Records the thread-pool scaling sweep of the one pooled kernel, the
# membership table's per-provider lanes (BM_MembershipBuildParallel at
# 0/1/2/4 workers, on the paper scenario and on the sim_index point), into
# BENCH_parallel.json at the repo root, then prints the serial-vs-N
# real-time speedup per input.
#
# Usage: tools/record_parallel_bench.sh [build-dir] [out-file]
#
# The build tree must already contain the perf_analysis binary
# (cmake --build <build-dir> --target perf_analysis).  Results depend on
# the machine's core count: on a single-CPU host the pooled runs sit at
# ~1x (the determinism contract, not the speedup, is what tests gate on —
# see docs/PARALLELISM.md).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
out_file="${2:-"$repo_root/BENCH_parallel.json"}"

bench_bin="$build_dir/bench/perf_analysis"
if [ ! -x "$bench_bin" ]; then
  echo "record_parallel_bench: $bench_bin missing; build it first:" >&2
  echo "  cmake --build $build_dir --target perf_analysis" >&2
  exit 2
fi

"$bench_bin" \
  --benchmark_filter='BM_MembershipBuildParallel' \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json \
  --benchmark_repetitions=1

# Summarize serial-vs-N speedups from the JSON (no jq dependency: the
# google-benchmark JSON layout is stable enough for an awk pass).  Names
# read BM_MembershipBuildParallel/<input>/<workers>/process_time/real_time.
awk '
  /"name":/      { gsub(/[",]/, ""); name = $2 }
  /"real_time":/ {
    gsub(/,/, "");
    split(name, parts, "/");
    input = parts[2] == "1" ? "sim_index" : "paper";
    workers = parts[3] + 0;
    if (workers == 0) serial[input] = $2;
    times[input "/" workers] = $2;
  }
  END {
    for (key in times) {
      split(key, parts, "/");
      if (parts[2] > 0 && serial[parts[1]] > 0)
        printf "%s: %d worker(s) -> %.2fx vs serial\n",
               parts[1], parts[2], serial[parts[1]] / times[key];
    }
  }
' "$out_file" | sort

echo "record_parallel_bench: wrote $out_file"
