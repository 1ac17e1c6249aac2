#!/usr/bin/env python3
"""Check that a change leaves the benchmark's simulated results bit-identical.

  scripts/sim_identity.py PARENT_ROOT CHANGE_ROOT [--seeds 1-5]
                          [--workloads W ...] [--trace]
                          [--allow PATTERN ...]

Runs each checkout's own `benchmark/run.sh --seconds 1` for every workload
and seed (building it there on first use), then compares the last result
line of each pair of runs: `correct`, `attempted`, `failed` and every
metric except those measured in host time or memory. Simulated metrics do
not depend on run length, so one second per run is enough. `--trace`
compares the traced runs' per-layer metrics instead of the end-to-end ones.

`--allow PATTERN` (repeatable, fnmatch like SKIPPED) names metrics a change
moves on purpose: an allowed metric that differs is still printed, marked
"(allowed)", but does not fail the check. `correct`, `attempted` and
`failed` cannot be allowed.

Prints every metric that differs. Exits 1 on any difference that is not
allowed or on any run that fails, 0 otherwise. Standard library only.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["lookup_planetlab", "selforg_mediation", "serving_flash_crowd",
             "scale_sharded"]

# Compared on every run, whatever --allow says.
ALWAYS_COMPARED = ("correct", "attempted", "failed")

# Host-time and memory metrics: they move from run to run on one checkout.
SKIPPED = ["setup_s", "run_s", "host_op_us_*", "peak_rss_mb",
           "sim.host_ns_per_event", "store.*_us*", "query.plan_us",
           "query.stats.sketch_us", "query.reformulation.expand_us",
           "selforg.round_s_*", "trace.overhead_pct"]


def parse_seeds(text):
    """'1-5' -> [1..5]; '1,3,7' -> [1, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def matches(metric, patterns):
    return any(fnmatch.fnmatchcase(metric, p) for p in patterns)


def allowed(name, patterns):
    return name not in ALWAYS_COMPARED and matches(name, patterns)


def run(root, workload, seed, trace, out):
    """The run's result line as a dict, or None when the run failed."""
    cmd = ["bash", os.path.join(root, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "1" if trace else "0", "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def differences(parent, change):
    """(name, parent value, change value) for each compared field that
    differs."""
    out = []
    for key in ALWAYS_COMPARED:
        if parent.get(key) != change.get(key):
            out.append((key, parent.get(key), change.get(key)))
    pm, cm = parent.get("metrics", {}), change.get("metrics", {})
    for name in sorted(set(pm) | set(cm)):
        if matches(name, SKIPPED):
            continue
        pv = pm.get(name, {}).get("value")
        cv = cm.get(name, {}).get("value")
        if pv != cv:
            out.append((name, pv, cv))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7")
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS,
                    choices=WORKLOADS)
    ap.add_argument("--trace", action="store_true",
                    help="compare traced runs (per-layer metrics)")
    ap.add_argument("--allow", action="append", default=[],
                    metavar="PATTERN",
                    help="metric (fnmatch) that may differ; repeatable")
    args = ap.parse_args()

    roots = [os.path.abspath(args.parent_root),
             os.path.abspath(args.change_root)]
    status = 0
    with tempfile.TemporaryDirectory() as out:
        for workload in args.workloads:
            for seed in parse_seeds(args.seeds):
                label = "%s seed %d%s" % (workload, seed,
                                          " traced" if args.trace else "")
                results = [run(root, workload, seed, args.trace, out)
                           for root in roots]
                failed = [root for root, r in zip(roots, results) if r is None]
                if failed:
                    print("%s: run failed in %s" % (label, ", ".join(failed)))
                    status = 1
                    continue
                diffs = differences(*results)
                if not diffs:
                    print("%s: identical" % label)
                    continue
                for name, pv, cv in diffs:
                    mark = ""
                    if allowed(name, args.allow):
                        mark = " (allowed)"
                    else:
                        status = 1
                    print("%s: %s differs: %r -> %r%s" % (label, name, pv, cv,
                                                         mark))
    return status


if __name__ == "__main__":
    sys.exit(main())
