#!/bin/sh
# Records every microbenchmark file from one build tree, then checks the
# readings against one gate table:
#
#   BENCH_parallel.json     the sim_index membership lanes at 0/2/4 workers
#   BENCH_obs.json          the rs_obs registry disabled and enabled
#   BENCH_incremental.json  cold start (load vs rebuild), append one
#   BENCH_verify.json       point verdicts; breakpoint vs day-by-day scan
#   BENCH_landscape.json    IdSet agreement matrix vs the digest referee
#   BENCH_serve.json        three serve_loadgen runs, each against a fresh
#                           `rootstore serve --threads 4 --cache 1024`
#
# Each google-benchmark file holds 5 repetitions as aggregates only, and
# its "context" names rootstore_build_type from the tree's CMakeCache.txt
# (google-benchmark's library_build_type describes the benchmark library,
# not rootstore).  Rows compare medians: one repetition moves by more than
# some of the effects recorded.
#
# Usage: tools/record_bench.sh [build-dir] [out-dir]
# Exits 2 when a binary is missing, before any run.  Every file is written
# before any gate is read; then one line is printed per row, and the exit
# status is 1 when an enforced row is below its floor, naming each such row.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
out_dir="${2:-"$repo_root"}"

for bin in bench/perf_analysis bench/perf_persist bench/perf_verify \
           bench/perf_landscape tools/rootstore tools/serve_loadgen; do
  if [ ! -x "$build_dir/$bin" ]; then
    echo "record_bench: $build_dir/$bin missing; build it first:" >&2
    echo "  cmake --build $build_dir --target $(basename "$bin")" >&2
    exit 2
  fi
done
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$build_dir/CMakeCache.txt")
mkdir -p "$out_dir"

# gbench <out-file> <binary> <filter>
gbench() {
  "$build_dir/bench/$2" --benchmark_filter="$3" \
      --benchmark_out="$out_dir/$1" --benchmark_out_format=json \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_context=rootstore_build_type="$build_type"
}
gbench BENCH_parallel.json perf_analysis 'BM_MembershipBuildParallel'
gbench BENCH_obs.json perf_analysis \
    'BM_JaccardMatrixObs|BM_StalenessObs'
gbench BENCH_incremental.json perf_persist \
    'BM_ColdStartRebuild|BM_ColdStartLoad|BM_ColdStartLoadFile|BM_FullRecompute|BM_AppendOneSnapshot'
gbench BENCH_verify.json perf_verify \
    'BM_VerifyChainStraight|BM_VerifyChainDeep|BM_VerifyChainCrossSign|BM_EngineVerifyChain|BM_FirstRejectedAtBreakpoints|BM_FirstRejectedAtLinearScan'
gbench BENCH_landscape.json perf_landscape \
    'BM_AgreementMatrixIdSet$|BM_AgreementMatrixNaive'

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# serve_run <name> <connections> <batch>: a fresh server, so each miss
# phase meets a cold cache; 25,600 requests, since ~50 ms phases let
# warm-up noise swamp the ratios.  Leaves the run's JSON at
# $workdir/<name>.json, and fails unless SIGINT drains the server to exit 0.
serve_run() {
  rm -f "$workdir/port"
  "$build_dir/tools/rootstore" serve --port 0 --threads 4 --cache 1024 \
      --port-file "$workdir/port" > "$workdir/$1.serve.log" 2>&1 &
  server_pid=$!
  i=0
  while [ ! -s "$workdir/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$server_pid" 2>/dev/null; then
      echo "record_bench: $1 server failed to start" >&2
      cat "$workdir/$1.serve.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  "$build_dir/tools/serve_loadgen" --port "$(cat "$workdir/port")" \
      --connections "$2" --requests 25600 --batch "$3" \
      --json-out "$workdir/$1.json"
  kill -INT "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=""
  if [ "$status" -ne 0 ]; then
    echo "record_bench: $1 server exited $status after SIGINT" >&2
    cat "$workdir/$1.serve.log" >&2
    exit 1
  fi
}
serve_run epoll_4 4 1
serve_run epoll_64 64 1
serve_run epoll_batch16 4 16

# BENCH_serve.json: where it was taken, the three runs as serve_loadgen
# wrote them, and the two gate ratios.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%S+00:00)" -v host="$(uname -n)" \
    -v cpus="$(getconf _NPROCESSORS_ONLN)" -v type="$build_type" '
  FNR == 1 {
    run = FILENAME; sub(/.*\//, "", run); sub(/\.json$/, "", run)
    if (NR == 1)
      printf "{\n  \"benchmark\": \"serve_transports\",\n  \"context\": " \
             "{\"date\": \"%s\", \"host_name\": \"%s\", \"num_cpus\": %s, " \
             "\"rootstore_build_type\": \"%s\"},", date, host, cpus, type
    else
      printf ","
    printf "\n  \"%s\": {", run
    next
  }
  /"(miss|hit)_phase": / {
    phase = $1; gsub(/[":]/, "", phase)
    rps = $0; sub(/.*"throughput_rps": /, "", rps); sub(/,.*/, "", rps)
    tput[run, phase] = rps
  }
  { printf "\n  %s", $0 }
  END {
    printf ",\n  \"epoll64_over_epoll4_miss\": %.2f,\n",
           tput["epoll_64", "miss_phase"] / tput["epoll_4", "miss_phase"]
    printf "  \"batch16_over_singleton_hit\": %.2f\n}\n",
           tput["epoll_batch16", "hit_phase"] / tput["epoll_4", "hit_phase"]
  }
' "$workdir/epoll_4.json" "$workdir/epoll_64.json" \
  "$workdir/epoll_batch16.json" > "$out_dir/BENCH_serve.json"
echo "record_bench: wrote 6 BENCH_*.json files to $out_dir ($build_type)"

# The gate table: name, floor, file, numerator, denominator[, note].  A
# reading is numerator over denominator: a median time over a faster path's
# median time, or for serve one run's throughput (requests/s) over
# another's.  A floor of "-" marks a row that is printed, not enforced.
#   serve_G1   64 connections over the same 4 event loops stay in the class
#              of 4 (0.7, not 0.85, absorbs the ±8% run-to-run noise).
#   serve_G2   batch-16 envelopes amortize the syscall-bound cached path.
#   lanes_*    serial over N workers on the sim_index database: one task
#              per provider, so it depends on the host's cores
#              (docs/PARALLELISM.md).
#   obs_*_on   tracing on over off.  The disabled-mode contract (no
#              allocation, no clock read, nothing collected) is enforced
#              by tests/obs/obs_disabled_test.cpp, not by a timing row.
lane=BM_MembershipBuildParallel
rt=process_time/real_time
gates="
serve_G1        0.7 BENCH_serve.json       epoll_64/miss_phase          epoll_4/miss_phase
serve_G2        2.0 BENCH_serve.json       epoll_batch16/hit_phase      epoll_4/hit_phase
cold_start      20  BENCH_incremental.json BM_ColdStartRebuild          BM_ColdStartLoadFile
append_one      10  BENCH_incremental.json BM_FullRecompute             BM_AppendOneSnapshot
verify          5   BENCH_verify.json      BM_FirstRejectedAtLinearScan BM_FirstRejectedAtBreakpoints
landscape       5   BENCH_landscape.json   BM_AgreementMatrixNaive      BM_AgreementMatrixIdSet
lanes_sim_2     -   BENCH_parallel.json    $lane/0/$rt $lane/2/$rt
lanes_sim_4     -   BENCH_parallel.json    $lane/0/$rt $lane/4/$rt
obs_jaccard_on  -   BENCH_obs.json BM_JaccardMatrixObs/1 BM_JaccardMatrixObs/0
obs_stale_on    -   BENCH_obs.json BM_StalenessObs/1     BM_StalenessObs/0
"

printf '%s\n' "$gates" | awk -v dir="$out_dir" '
  BEGIN { ns["ns"] = 1; ns["us"] = 1e3; ns["ms"] = 1e6; ns["s"] = 1e9 }
  # Loads one record into val[file, key]: each google-benchmark median in
  # ns, keyed by its name less "_median", and each serve phase throughput,
  # keyed run/phase.
  function load(file,    path, line, name, run, t, u) {
    path = dir "/" file
    while ((getline line < path) > 0) {
      if (line ~ /^  "[a-z0-9_]+": \{$/) {
        run = line; gsub(/[ ":{]/, "", run)
      } else if (line ~ /"(miss|hit)_phase": /) {
        t = line; sub(/.*"throughput_rps": /, "", t); sub(/,.*/, "", t)
        u = line; sub(/^ *"/, "", u); sub(/".*/, "", u)
        val[file, run "/" u] = t + 0
      } else if (line ~ /"name": /) {
        name = line; sub(/^ *"name": "/, "", name); sub(/",?$/, "", name)
      } else if (line ~ /"real_time": /) {
        t = line; sub(/.*"real_time": /, "", t); sub(/,.*/, "", t)
      } else if (line ~ /"time_unit": / && name ~ /_median$/) {
        u = line; sub(/.*"time_unit": "/, "", u); sub(/".*/, "", u)
        val[file, substr(name, 1, length(name) - 7)] = t * ns[u]
      }
    }
    close(path)
    loaded[file] = 1
  }
  NF >= 5 {
    if (!($3 in loaded)) load($3)
    num = val[$3, $4]; den = val[$3, $5]
    ok = num > 0 && den > 0
    reading = ok ? sprintf("%8.3f", num / den) : " missing"
    if ($2 == "-") {
      verdict = "printed only" (NF > 5 ? ", " $6 : "")
    } else if (ok && num / den >= $2) {
      verdict = "floor " $2 ": ok"
    } else {
      verdict = "floor " $2 ": BELOW"
      below = below " " $1
    }
    printf "%-16s %s  (%.4g / %.4g)  %s\n", $1, reading, num, den, verdict
  }
  END {
    if (below != "") {
      print "record_bench: below floor:" below
      exit 1
    }
  }
'
