#!/bin/sh
# Structural lock-discipline lint over src/ and the CLI surface (tools/*.cpp).
#
# Complements clang's -Wthread-safety (cmake/Hardening.cmake): the compiler
# proves that annotated mutexes are used correctly; this lint proves that
# ONLY annotated mutexes exist, and that the deliberate escape hatches are
# justified.  Pure grep/awk — it runs everywhere, needs no toolchain, and
# is a hard CI gate (tools/ci_check.sh).
#
# Rules (docs/STATIC_ANALYSIS.md):
#   R1  no naked std sync primitives (std::mutex, std::lock_guard,
#       std::unique_lock, std::scoped_lock, std::condition_variable,
#       std::shared_mutex, std::recursive_mutex) outside src/util/mutex.h —
#       an unannotated mutex is invisible to the thread-safety analysis,
#       which silently un-proves everything it guards.
#   R2  no std::thread::detach() — a detached thread outlives every
#       shutdown guarantee the drain logic makes.
#   R3  every std::memory_order_relaxed use needs a `// memory-order:`
#       rationale comment on the same line or within the 10 lines above.
#   R4  every RS_NO_THREAD_SAFETY_ANALYSIS use needs a `// safety:`
#       justification comment on the same line or within the 10 lines above.
#   R5  no naked epoll calls (epoll_create1/epoll_ctl/epoll_wait) outside
#       src/serve/event_loop.* — readiness bookkeeping that bypasses
#       EventLoop breaks its edge-triggered re-arm and drain invariants.
#   R6  no std::atomic<std::shared_ptr<...>> — libstdc++ 12's load drops
#       its lock bit with a relaxed store, so a later compare_exchange is
#       unordered after the read (a race TSan reports); publish through a
#       shared_ptr guarded by rs::util::Mutex instead.
#   R7  no rs::exec::parallel_for call outside src/store/membership.cpp,
#       and no definition outside src/exec/ — the per-provider membership
#       lanes are the one place a fork-join pays (docs/PARALLELISM.md).
#
# Usage: tools/check_concurrency.sh   (exits non-zero on any finding)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

files=$(find src -name '*.h' -o -name '*.cpp' | sort; find tools -maxdepth 1 -name '*.cpp' | sort)

status=0

# R1: naked std sync primitives.  src/util/mutex.h is the one allowed home
# (it wraps them with the annotations); thread_annotations.h documents them.
r1=$(printf '%s\n' "$files" |
  grep -v -e '^src/util/mutex\.h$' |
  xargs grep -nE \
    'std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable(_any)?|shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b' \
    /dev/null | grep -v 'check_concurrency-allow' || true)
if [ -n "$r1" ]; then
  status=1
  echo "check_concurrency: R1 naked std sync primitive (use rs::util::Mutex/MutexLock/CondVar from src/util/mutex.h):" >&2
  printf '%s\n' "$r1" >&2
fi

# R2: detached threads.
r2=$(printf '%s\n' "$files" | xargs grep -nE '\.detach\(\)' /dev/null || true)
if [ -n "$r2" ]; then
  status=1
  echo "check_concurrency: R2 std::thread::detach() is banned (nothing may outlive the drain):" >&2
  printf '%s\n' "$r2" >&2
fi

# R5: epoll syscalls confined to the event loop.  Everything else talks to
# EventLoop through its API so the edge-trigger re-arm logic stays in one
# place.
r5=$(printf '%s\n' "$files" |
  grep -v -e '^src/serve/event_loop\.h$' -e '^src/serve/event_loop\.cpp$' |
  xargs grep -nE 'epoll_(create1|ctl|wait)\s*\(' /dev/null |
  grep -v 'check_concurrency-allow' || true)
if [ -n "$r5" ]; then
  status=1
  echo "check_concurrency: R5 naked epoll call outside src/serve/event_loop.* (route readiness through EventLoop):" >&2
  printf '%s\n' "$r5" >&2
fi

# R6: atomic shared_ptr.  No exemption: the Mutex-guarded pointer is the
# one publication pattern (src/serve/server.h).
r6=$(printf '%s\n' "$files" |
  xargs grep -nE 'std::atomic<\s*std::shared_ptr' /dev/null || true)
if [ -n "$r6" ]; then
  status=1
  echo "check_concurrency: R6 std::atomic<std::shared_ptr> (publish a shared_ptr guarded by rs::util::Mutex instead):" >&2
  printf '%s\n' "$r6" >&2
fi

# R7: fork-join confined to the membership lanes.  The pool header under
# src/exec/ defines parallel_for; membership.cpp is its one caller.
r7=$(printf '%s\n' "$files" |
  grep -v -e '^src/exec/' -e '^src/store/membership\.cpp$' |
  xargs grep -nE '\bparallel_for\s*\(' /dev/null || true)
if [ -n "$r7" ]; then
  status=1
  echo "check_concurrency: R7 parallel_for outside src/store/membership.cpp (run the loop inline; see docs/PARALLELISM.md):" >&2
  printf '%s\n' "$r7" >&2
fi

# R3/R4: pattern uses requiring a nearby rationale comment.
check_rationale() {
  pattern="$1"; rationale="$2"; label="$3"; exempt="$4"
  out=$(printf '%s\n' "$files" | grep -v -e "^$exempt\$" | while read -r f; do
    awk -v pat="$pattern" -v rat="$rationale" -v file="$f" '
      { line[NR] = $0 }
      $0 ~ pat {
        ok = 0
        for (i = NR; i >= NR - 10 && i >= 1; i--) {
          if (line[i] ~ rat) { ok = 1; break }
        }
        if (!ok) printf "%s:%d:%s\n", file, NR, $0
      }' "$f"
  done)
  if [ -n "$out" ]; then
    status=1
    echo "check_concurrency: $label" >&2
    printf '%s\n' "$out" >&2
  fi
}

check_rationale 'memory_order_relaxed' 'memory-order:' \
  "R3 relaxed atomic without a '// memory-order:' rationale within 10 lines:" \
  'none'
check_rationale 'RS_NO_THREAD_SAFETY_ANALYSIS' '(safety:|^#define)' \
  "R4 RS_NO_THREAD_SAFETY_ANALYSIS without a '// safety:' justification within 10 lines:" \
  'src/util/thread_annotations.h'

if [ "$status" -ne 0 ]; then
  echo "check_concurrency: FAILED (see docs/STATIC_ANALYSIS.md for the rules)" >&2
  exit 1
fi
echo "check_concurrency: clean ($(printf '%s\n' "$files" | wc -l | tr -d ' ') files)"
