#!/usr/bin/env python3
"""Ratio gate over the matching micro-benchmark results.

Usage: check_bench_plan.py <BENCH_matching.json> [slack]

BENCH_matching.json is google-benchmark JSON output. Each gated ratio names
two benchmarks run over the same workload, a candidate and the baseline it
must not fall behind:

  - BM_PlannedVsInterpreted/1 (the compiled-plan path) against
    BM_PlannedVsInterpreted/0 (the interpreter);
  - BM_SnapshotCompact/4000 (folding a patched snapshot in place) against
    BM_SnapshotBuild/4000 (building one afresh from the graph).

A ratio passes when candidate <= baseline * slack (default 1.10). Ratios do
not flake on absolute times the way thresholds do, and CI smoke runners are
2-core and noisy, so each gate is "not a regression"; the full-scale
speedup targets are tracked locally in ROADMAP.md.

Exit 0 when every ratio passes; nonzero with a diagnostic otherwise. CI runs
this on the bench-smoke artifact so a change that makes a fast path slower
than the path it replaces fails the push that introduced it.
"""

import json
import sys

# (candidate, baseline, what a failure means)
RATIOS = [
    ("BM_PlannedVsInterpreted/1", "BM_PlannedVsInterpreted/0",
     "compiled plan slower than interpreter"),
    ("BM_SnapshotCompact/4000", "BM_SnapshotBuild/4000",
     "in-place snapshot compaction slower than a fresh build"),
]


def fail(msg):
    print(f"check_bench_plan: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) not in (2, 3):
        fail("usage: check_bench_plan.py <BENCH_matching.json> [slack]")
    path = sys.argv[1]
    slack = float(sys.argv[2]) if len(sys.argv) == 3 else 1.10

    with open(path) as f:
        doc = json.load(f)
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail(f"{path}: no 'benchmarks' array (is this google-benchmark JSON?)")

    # Aggregate runs (mean/median/stddev) carry a 'aggregate_name'; when
    # repetitions are off each benchmark appears once as an 'iteration' run.
    wanted = {name for pair in RATIOS for name in pair[:2]}
    times = {}
    for b in benches:
        name = b.get("name", "")
        if b.get("run_type") == "aggregate":
            continue
        if name in wanted:
            times[name] = (float(b["real_time"]), b.get("time_unit", "ns"))

    missing = sorted(wanted - set(times))
    if missing:
        fail(f"{path}: missing benchmarks {missing} (found: {sorted(times)})")

    for candidate, baseline, failure in RATIOS:
        ct, cunit = times[candidate]
        bt, bunit = times[baseline]
        if cunit != bunit:
            fail(f"{path}: mismatched time units {cunit} vs {bunit} "
                 f"({candidate} vs {baseline})")
        ratio = ct / bt if bt > 0 else float("inf")
        verdict = (f"{baseline}={bt:.3f}{bunit} {candidate}={ct:.3f}{cunit} "
                   f"ratio={ratio:.3f} (slack {slack:.2f})")
        if ct > bt * slack:
            fail(f"{path}: {failure}: {verdict}")
        print(f"{path}: OK {verdict}")
    print("check_bench_plan: PASS")


if __name__ == "__main__":
    main()
