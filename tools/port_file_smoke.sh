#!/bin/sh
# Regression test for the --port-file startup race, registered as a ctest.
#
# The contract (tools/rootstore.cpp, serve_until_signal, which writes
# through rs::store::persist::atomic_write_file): a stale port file from a
# previous run is unlinked before the engine build starts, and the new file
# appears atomically (tmp + fsync + rename) only AFTER listen() has
# succeeded.  So a waiter polling for the file can never
# read a stale port, a half-written port, or a port nobody listens on yet.
#
#   1. plant a stale port file; it must be replaced (never appended to,
#      never partially overwritten) by the real port
#   2. the instant the file first holds something other than the stale
#      marker, that content must be a complete valid port and a connect
#      must succeed immediately
#
# Usage: tools/port_file_smoke.sh <build-dir>
set -eu

build_dir="${1:?usage: port_file_smoke.sh <build-dir>}"
rootstore="$build_dir/tools/rootstore"
loadgen="$build_dir/tools/serve_loadgen"
workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# A stale file from a "previous run": port 1 is never what we get assigned.
printf '1\n' > "$workdir/port"

"$rootstore" serve --port 0 --threads 2 --cache 64 \
    --port-file "$workdir/port" > "$workdir/serve.log" 2>&1 &
server_pid=$!

# Poll at full speed.  The stale marker may legitimately still be visible
# for the first few observations (the server unlinks it right after
# argument parsing, and it can vanish between our -e test and a cat), so
# each observation must be one of: absent, the stale marker, or — exactly
# once — a complete real port.  If the unlink never happened we keep
# reading "1" until the timeout, which fails the test; anything that is
# neither the marker nor a well-formed port is a torn write and fails
# immediately.
i=0
port=""
while :; do
  content=$(cat "$workdir/port" 2>/dev/null || true)
  if [ -n "$content" ] && [ "$content" != "1" ]; then
    port="$content"
    break
  fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "port_file_smoke: server exited before writing the port file" >&2
    cat "$workdir/serve.log" >&2
    exit 1
  fi
  i=$((i + 1))
  if [ "$i" -gt 6000 ]; then
    echo "port_file_smoke: stale port file never replaced by a real port" >&2
    cat "$workdir/serve.log" >&2
    exit 1
  fi
  sleep 0.01
done

case "$port" in
  *[!0-9]*|'')
    echo "port_file_smoke: port file held garbage: '$port'" >&2
    exit 1
    ;;
esac
if [ "$port" -lt 1024 ] || [ "$port" -gt 65535 ]; then
  echo "port_file_smoke: implausible ephemeral port '$port'" >&2
  exit 1
fi

# The file only appears after listen(), so this first connect cannot be
# refused.  One query proves the socket is really being served.
response=$("$loadgen" --port "$port" --oneshot '{"op":"stats"}')
case "$response" in
  '{"op":"stats","status":"ok"'*) ;;
  *)
    echo "port_file_smoke: unexpected response on published port: $response" >&2
    exit 1
    ;;
esac

kill -INT "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
if [ "$status" -ne 0 ]; then
  echo "port_file_smoke: server exited $status after SIGINT (want 0)" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "port_file_smoke: OK (port $port)"
