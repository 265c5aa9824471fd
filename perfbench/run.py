#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a grepair source tree. The first run configures and
builds perfbench/ (which pulls in the repository's CMake build) into
.bench_build, or into $CARGO_TARGET_DIR when that is set; later runs only
rebuild what changed. Every run first runs the protocol-client tests
(perfbench_client_test) and stops if they fail.

With --trace 0 the run measures WINDOWS windows of S/WINDOWS each, each in a
perfbench process of its own with its own set-up and inputs. It reports
setup_s and peak_rss_mb as the median over the windows, and the commit
latency and throughput as percentiles of every window's samples together,
all with times scaled to the reference host speed (perfbench/calibrate.h).
A process per window keeps one window's memory and allocator state out of
the next one's timing and peak RSS. With --trace 1 one process measures an untraced and a traced
window of S/WINDOWS each and reports the per-layer metrics, each printed
beside the end-to-end metric and workloads it is expected to move
(perfbench/layer_map.json). The printed result line is checked against
BENCHMARK.json: its metrics must be exactly the "end_to_end" list, or with
--trace 1 the "per_layer" list, with matching units.

Exit status: 0 for a correct run; 1 when a correctness check failed (the
result is still printed, with "correct": false), or the benchmark could not
be built or run or its client tests failed (no result is printed).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
WINDOWS = 6


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_client_test"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_client_tests(build_dir):
    """The protocol client frames every reply the benchmark reads; a client
    that misframes them would make every figure wrong, so its tests gate
    every run."""
    cmd = [os.path.join(build_dir, "perfbench_client_test"), "--gtest_brief=1"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=120)
    except subprocess.TimeoutExpired:
        fail("protocol-client tests did not finish within 120 s")
    if done.returncode != 0:
        fail("protocol-client tests failed")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_result(result, spec, trace):
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    names = [m["name"] for m in expected]
    if list(result["metrics"]) != names:
        fail(f"metrics {list(result['metrics'])} are not BENCHMARK.json's "
             f"{names}")
    for m in expected:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, not {m['unit']}")


def run_binary(cmd, deadline):
    """Runs one perfbench process, passes its output through but for the
    result line, and returns that line's object."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        fail(f"benchmark exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail("benchmark printed no result")
    print("\n".join(lines[:-1]), flush=True)
    return result


def percentile(values, p):
    """Nearest-rank percentile, as perfbench/layers.cc takes it."""
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(p / 100 * len(v)))) - 1]


# Metrics taken as a percentile of every window's samples together rather
# than as the median of the windows' values, so that every sample of a run
# weighs the same and one window may hold too few samples beyond a tail
# percentile: name -> (samples, p).
POOLED = {"commit_ms_p50": ("commit_ms", 50), "commit_ms_p90": ("commit_ms", 90),
          "commit_ms_p99": ("commit_ms", 99), "edits_per_s": ("rate", 50)}


def combine(results, spec):
    """The windows' results combined and printed: each POOLED metric over
    every window's samples, the others as the median over the windows. The
    result object holds the gated metrics."""
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print(f"# end-to-end over {len(results)} windows, times at reference "
          "speed: median, or pooled percentile with its samples and how many "
          "lie beyond it")
    combined = {}
    for name, (unit, v) in values.items():
        if name in POOLED:
            key, p = POOLED[name]
            pool = [x for r in results for x in r["samples"][key]]
            value = percentile(pool, p) if pool else 0.0
            note = f"(pooled: n={len(pool)}, {len(pool) * (100 - p) / 100:.0f} beyond)"
        else:
            value = statistics.median(v)
            note = ""
        combined[name] = {"value": value, "unit": unit}
        print(f"#   {name:34} {value:16.6f} {unit:6} {note}".rstrip())
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m["name"]: combined[m["name"]] for m in spec["end_to_end"]
                    if m["name"] in combined},
    }


def print_layer_map(metrics):
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    if set(layer_map) != set(metrics):
        fail("layer_map.json does not cover exactly the per-layer metrics")
    print("# per-layer metric -> end-to-end metric it should move, on workloads")
    for name, m in metrics.items():
        target = layer_map[name]
        print(f"#   {name:34} {m['value']:16.6f} {m['unit']:14} -> "
              f"{target['moves']} on {', '.join(target['on'])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    run_client_tests(build_dir)

    sha = git_sha()

    def command(window):
        # Window i of seed N runs on inputs of seed WINDOWS * N + i: a run
        # averages over WINDOWS inputs, and runs of two seeds share none.
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(WINDOWS * args.seed + window),
               "--seconds", repr(args.seconds / WINDOWS), "--trace", args.trace,
               "--workdir", os.path.join(build_dir, "perfbench-work")]
        return cmd + ["--git-sha", sha] if sha else cmd

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace == "1":
        result = run_binary(command(0), deadline)
        check_result(result, spec, True)
        print_layer_map(result["metrics"])
    else:
        result = combine([run_binary(command(i), deadline)
                          for i in range(WINDOWS)], spec)
        check_result(result, spec, False)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
