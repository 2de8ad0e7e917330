#!/bin/sh
# Records the landscape disparity benchmark into BENCH_landscape.json:
#
#   * BM_AgreementMatrixIdSet — the shipped agreement matrix over interned
#     IdSet presence views resolved from the TrustIndex
#   * BM_AgreementMatrixNaive — the same metrics recomputed from sorted
#     32-byte digest sets (the test referee, tests/referee/), the path an
#     implementation without the interner would run per request
#
# Gate: the IdSet matrix must beat the naive sorted-digest scan by >= 5x
# on the simulated 14-provider ecosystem (see docs/LANDSCAPE.md).  The
# committed BENCH_landscape.json is the record.
#
# Usage: tools/record_landscape_bench.sh [build-dir] [out-file]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
out_file="${2:-"$repo_root/BENCH_landscape.json"}"

bench_bin="$build_dir/bench/perf_landscape"
if [ ! -x "$bench_bin" ]; then
  echo "record_landscape_bench: $bench_bin missing; build it first:" >&2
  echo "  cmake --build $build_dir --target perf_landscape" >&2
  exit 2
fi

"$bench_bin" \
  --benchmark_filter='BM_AgreementMatrixIdSet$|BM_AgreementMatrixNaive' \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json \
  --benchmark_repetitions=1

# Summarize and gate the IdSet-vs-naive speedup from the JSON (no jq
# dependency: the google-benchmark JSON layout is stable enough for awk).
awk '
  /"name":/      { gsub(/[",]/, ""); name = $2 }
  /"real_time":/ {
    gsub(/,/, "");
    times[name] = $2;
  }
  END {
    status = 0;
    if (times["BM_AgreementMatrixIdSet"] > 0) {
      naive = times["BM_AgreementMatrixNaive"];
      speedup = naive / times["BM_AgreementMatrixIdSet"];
      printf "agreement matrix: IdSet %.1fx vs sorted-digest scan (floor 5x)\n",
             speedup;
      if (speedup < 5) {
        print "record_landscape_bench: IdSet-speedup floor MISSED";
        status = 1;
      }
    } else { print "missing BM_AgreementMatrixIdSet"; status = 1 }
    exit status;
  }
' "$out_file"

echo "record_landscape_bench: wrote $out_file"
