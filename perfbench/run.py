#!/usr/bin/env python3
"""End-to-end benchmark for rootstore: one workload, one run.

    python3 perfbench/run.py --workload paper_reports --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library, the `rootstore` CLI and the `perfbench` program (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.
Each run generates its seeded inputs in a process of its own, measures in
another, prints a context line (host, inputs, sample counts) and, as the last
line of stdout, the result JSON: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  README.md beside this file describes the
workloads and every metric.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_reports", "sim_index", "serve_mix")
DEADLINE_S = 170  # every run after the build ends before this
SIM_FLAGS = ("cas", "programs", "derivatives", "interval_days", "ct_logs")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures (once) and builds; returns the two binaries."""
    for needed in ("src/CMakeLists.txt", "tools/rootstore.cpp",
                   "cmake/Hardening.cmake"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a rootstore checkout")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(out), "-j", jobs,
             "--target", "perfbench", "rootstore"],
            check=True, stdout=sys.stderr)
    return out / "perfbench", out / "rootstore"


def cpu_times():
    """Aggregate /proc/stat cpu line: (steal ticks, total ticks)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def cache_value(out, key):
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return ""


def host_context(out):
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True)
        version = probe.stdout.splitlines()[0] if probe.stdout else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "cxx_flags": cache_value(out, "CMAKE_CXX_FLAGS_RELWITHDEBINFO"),
        "loadavg_start": os.getloadavg()[0],
    }


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in data[key]}


def stop_group(pgid):
    """Kills whatever is left of a step's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(cmd, env, timeout):
    """Runs one step in its own process group, so that a server it spawned
    cannot outlive it, even when the step is killed at its deadline."""
    name = " ".join(map(str, cmd[:3]))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"{name} exceeded the run's deadline")
    finally:
        stop_group(proc.pid)
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        fail(f"{name} exited {proc.returncode}")
    return stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for flag in SIM_FLAGS:
        parser.add_argument(f"--sim-{flag.replace('_', '-')}", type=int,
                            help="sim_index scale point (ad hoc; only the "
                                 "default point is gated)")
    args = parser.parse_args()

    out = build_dir()
    try:
        perfbench, rootstore = build(out)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    start = time.monotonic()  # the first run's build has its own budget
    steal0, total0 = cpu_times()
    host = host_context(out)

    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "ROOTSTORE_TRACE"}
    common = ["--seed", str(args.seed), "--dir", str(work)]
    for flag in SIM_FLAGS:
        value = getattr(args, f"sim_{flag}")
        if value is not None:
            common += [f"--sim-{flag.replace('_', '-')}", str(value)]
    try:
        remaining = lambda: DEADLINE_S - (time.monotonic() - start)
        if args.workload == "serve_mix":
            # The paper scenario's persisted index, built by the real CLI.
            inputs = run([str(rootstore), "index", "build",
                          str(work / "paper.rsix")], env, remaining())
        else:
            inputs = run([str(perfbench), "gen", args.workload] + common,
                         env, remaining())
        os.sync()  # the inputs' writeback must not overlap the measurement
        trace_file = traces / f"{args.workload}-seed{args.seed}.json"
        stdout = run([str(perfbench), "run", args.workload] + common +
                     ["--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--repo", str(ROOT),
                      "--rootstore", str(rootstore),
                      "--trace-out", str(trace_file)],
                     env, remaining())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(stdout.strip().splitlines()[-1])
    steal1, total1 = cpu_times()
    host["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    host["inputs"] = inputs.strip()
    declared = declared_metrics(args.trace)
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and declared != measured:
        fail(f"metrics {sorted(measured)} do not match BENCHMARK.json "
             f"{sorted(declared)}")

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "host": host,
               "run": result["context"]}
    if args.trace:
        context["trace_file"] = os.path.relpath(trace_file, ROOT)
    if result["attempted"]:
        context["run"]["failed_share"] = result["failed"] / result["attempted"]
    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    record = dict(context, result=result)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
