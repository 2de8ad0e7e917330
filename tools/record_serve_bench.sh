#!/bin/sh
# Records the serving-layer benchmark into BENCH_serve.json.
#
# Three runs, every one against a FRESH server so each miss phase is a real
# cold cache, all recorded in the same invocation so the gates below never
# compare numbers from different machines or commits:
#
#   epoll_4       4 connections (one per event loop)
#   epoll_64      64 connections (the contention phase: 64 sockets
#                 multiplexed over 4 event loops)
#   epoll_batch16 4 connections, 16 queries per batch envelope (per-QUERY
#                 throughput, so the ratio to epoll_4 is the
#                 syscall-amortization win)
#
# Gates (hard failures, so CI catches a serve-layer regression):
#   G1  epoll_64 miss throughput >= 0.7x epoll_4 miss throughput — 16x the
#       connections over the same 4 loops must stay in the same class.
#       (Until its removal, the thread-per-connection server was the
#       reference here; it and the event loop both measured 29.3k miss rps
#       at 4 connections, so the 0.7 floor keeps its meaning.)
#   G2  epoll_batch16 hit throughput >= 2.0x epoll_4 hit throughput — the
#       cached path is syscall-bound, so batching must amortize visibly.
#
# NOTE on single-core CI runners: with one hardware thread every loop
# time-slices the same core, and each extra ready socket costs its own
# epoll event and syscalls, so G1 is a floor, not a speedup (0.7 rather
# than 0.85 only to absorb the ±8% per-phase scheduler noise observed
# run-to-run).  Batch envelopes amortize that per-event overhead away (G2
# is a real >= 2x on the same hardware).  docs/SERVING.md records the
# interpretation; measured ratios land in the JSON either way.
#
# Usage: tools/record_serve_bench.sh [build-dir] [out-file]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
out_file="${2:-"$repo_root/BENCH_serve.json"}"

rootstore="$build_dir/tools/rootstore"
loadgen="$build_dir/tools/serve_loadgen"
for bin in "$rootstore" "$loadgen"; do
  if [ ! -x "$bin" ]; then
    echo "record_serve_bench: $bin missing; build rootstore and" >&2
    echo "serve_loadgen first" >&2
    exit 2
  fi
done

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# run_one <name> <connections> <requests> <batch>
# Starts a fresh server, runs loadgen, stops the server, leaves the
# per-run JSON at $workdir/<name>.json.
run_one() {
  name="$1"; conns="$2"; reqs="$3"; batch="$4"
  rm -f "$workdir/port"
  "$rootstore" serve --port 0 --threads 4 --cache 1024 \
      --port-file "$workdir/port" > "$workdir/$name.serve.log" 2>&1 &
  server_pid=$!
  i=0
  while [ ! -s "$workdir/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$server_pid" 2>/dev/null; then
      echo "record_serve_bench: $name server failed to start" >&2
      cat "$workdir/$name.serve.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  port=$(cat "$workdir/port")
  "$loadgen" --port "$port" --connections "$conns" --requests "$reqs" \
      --batch "$batch" --json-out "$workdir/$name.json"
  kill -INT "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=""
  if [ "$status" -ne 0 ]; then
    echo "record_serve_bench: $name server exited $status after SIGINT" >&2
    cat "$workdir/$name.serve.log" >&2
    exit 1
  fi
}

# Gate-feeding phases run 25600 requests: short phases (~50 ms) let
# warm-up noise swamp the ratios on a shared CI core.
run_one epoll_4       4 25600 1
run_one epoll_64     64 25600 1
run_one epoll_batch16 4 25600 16

# phase_rps <file> <phase>: extracts "throughput_rps" from the phase line.
phase_rps() {
  awk -v phase="\"$2\"" -F'"throughput_rps": ' \
    '$0 ~ phase {split($2, a, ","); print a[1]}' "$1"
}

e4_miss=$(phase_rps "$workdir/epoll_4.json" miss_phase)
e64_miss=$(phase_rps "$workdir/epoll_64.json" miss_phase)
e4_hit=$(phase_rps "$workdir/epoll_4.json" hit_phase)
b16_hit=$(phase_rps "$workdir/epoll_batch16.json" hit_phase)

# Compose the committed record: the three runs plus the gate ratios.
{
  printf '{\n  "benchmark": "serve_transports",\n'
  for name in epoll_4 epoll_64 epoll_batch16; do
    printf '  "%s": ' "$name"
    sed 's/^/  /' "$workdir/$name.json" | sed '1s/^  //'
    printf ',\n'
  done | sed 's/^\(  },\)$/\1/'
  awk -v e4="$e4_miss" -v e64="$e64_miss" -v e4h="$e4_hit" -v b16="$b16_hit" \
    'BEGIN {
       printf "  \"epoll64_over_epoll4_miss\": %.2f,\n", (e4 > 0 ? e64 / e4 : 0)
       printf "  \"batch16_over_singleton_hit\": %.2f\n", (e4h > 0 ? b16 / e4h : 0)
     }'
  printf '}\n'
} > "$out_file"

# Gates.
awk -v e4="$e4_miss" -v e64="$e64_miss" 'BEGIN { exit !(e64 >= 0.7 * e4) }' || {
  echo "record_serve_bench: GATE G1 FAILED — epoll@64conns miss ${e64_miss} rps" >&2
  echo "is below 0.7x epoll@4conns miss ${e4_miss} rps (same-run)" >&2
  exit 1
}
awk -v e4h="$e4_hit" -v b16="$b16_hit" 'BEGIN { exit !(b16 >= 2.0 * e4h) }' || {
  echo "record_serve_bench: GATE G2 FAILED — batch-16 hit ${b16_hit} rps/query" >&2
  echo "is below 2.0x singleton hit ${e4_hit} rps (same-run)" >&2
  exit 1
}

echo "record_serve_bench: wrote $out_file (epoll64/epoll4 miss $(awk -v a="$e64_miss" -v b="$e4_miss" 'BEGIN{printf "%.2f", (b>0 ? a/b : 0)}')x, batch16/singleton hit $(awk -v a="$b16_hit" -v b="$e4_hit" 'BEGIN{printf "%.2f", (b>0 ? a/b : 0)}')x)"
