#!/usr/bin/env python3
"""Compare GridVine benchmark results (standard library only).

  compare.py diff BASE_DIR NEW_DIR   per workload x end-to-end metric: medians,
                                     quartiles, pair wins, bound, verdict
  compare.py spread DIR              per workload x metric: median, IQR and
                                     IQR/median against the bound
  compare.py check --trace 0|1       validate one result line read from stdin

DIRs hold the result files benchmark/run.sh writes (one JSON per run). The
bounds, units and directions come from BENCHMARK.json.

Verdicts follow the benchmark's rules for claiming a change:
  worse      the new median is worse than the base median by more than the
             bound (a share of the base median)
  unresolved the base runs spread wider than the bound (IQR/median), so the
             bound cannot be judged -- unless every new run beats every base
             run (better) or loses to every one (worse)
  better     the new side wins at least 9/10 of the pairs (ties count for
             neither) and the medians differ by more than the base IQR
  unchanged  everything else
diff exits 1 when any pairing is worse or unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load_results(directory, traced):
    """{workload: [result, ...]} for untraced (or traced) runs, oldest
    first."""
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(r, dict) or "workload" not in r:
            continue  # e.g. a trace_<workload>.json span file
        if bool(r.get("trace")) != traced or r.get("smoke"):
            continue
        by_workload.setdefault(r["workload"], []).append(r)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r.get("provenance", {}).get("date", ""))
    return by_workload


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r.get("metrics", {})]


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def rel(x, base):
    return x / base if base else (0.0 if x == 0 else float("inf"))


def verdict(base, new, bound, lower_better):
    """Returns (verdict, wins, pairs) for one workload x metric."""
    sign = 1.0 if lower_better else -1.0

    def better(a, b):  # a reads better than b
        return sign * (a - b) < 0

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    losses = sum(1 for b, n in pairs if better(b, n))
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    worse_by = rel(sign * (nmed - bmed), abs(bmed))
    if all(better(n, b) for n in new for b in base):
        return "better", wins, len(pairs)
    if all(better(b, n) for n in new for b in base) and worse_by > bound:
        return "worse", wins, len(pairs)
    if rel(b3 - b1, abs(bmed)) > bound:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    decided = wins + losses
    if (decided and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > (b3 - b1)):
        return "better", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def cmd_diff(args):
    bench = load_benchmark(args.benchmark)
    base = load_results(args.base, traced=False)
    new = load_results(args.new, traced=False)
    bad = 0
    print("%-20s %-20s %12s %12s %12s %12s %6s %6s  %s" % (
        "workload", "metric", "base_med", "base_IQR", "new_med", "new_IQR",
        "wins", "bound", "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print("%-20s (no runs on %s side)" % (
                name, "base" if name not in base else "new"))
            bad += 1
            continue
        for m in bench["end_to_end"]:
            bv, nv = values(base[name], m["name"]), values(new[name], m["name"])
            if not bv or not nv:
                continue
            v, wins, pairs = verdict(bv, nv, m["bound"],
                                     m["better"] == "lower")
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            print("%-20s %-20s %12.6g %12.6g %12.6g %12.6g %3d/%-2d %6.3f  %s"
                  % (name, m["name"], bmed, b3 - b1, nmed, n3 - n1, wins,
                     pairs, m["bound"], v))
            bad += v in ("worse", "unresolved")
    return 1 if bad else 0


def cmd_spread(args):
    bench = load_benchmark(args.benchmark)
    runs = load_results(args.dir, traced=args.trace)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    print("%-20s %-36s %4s %14s %12s %9s %7s" % (
        "workload", "metric", "n", "median", "IQR", "IQR/med", "bound"))
    over = 0
    for w in bench["workloads"]:
        for m in metrics:
            v = values(runs.get(w["name"], []), m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = rel(q3 - q1, abs(med))
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                over += 1
            print("%-20s %-36s %4d %14.6g %12.6g %9.4f %7s%s" % (
                w["name"], m["name"], len(v), med, q3 - q1, spread,
                "-" if bound is None else "%.3f" % bound, flag))
    return 1 if over else 0


def cmd_check(args):
    bench = load_benchmark(args.benchmark)
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("check: no result line", file=sys.stderr)
        return 1
    try:
        r = json.loads(lines[-1])
    except ValueError as e:
        print("check: last line is not JSON: %s" % e, file=sys.stderr)
        return 1
    problems = []
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys are %s" % sorted(r))
    if r.get("correct") is not True:
        problems.append("correct is %r" % r.get("correct"))
    for key in ("attempted", "failed"):
        if not isinstance(r.get(key), int) or r[key] < 0:
            problems.append("%s is %r" % (key, r.get(key)))
    if isinstance(r.get("attempted"), int) and r["attempted"] < 1:
        problems.append("attempted < 1")
    declared = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = r.get("metrics", {})
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s has unit %r, declared %r" % (
                name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
        elif args.trace == 0 and m["value"] == 0:
            problems.append("end-to-end metric %s is 0" % name)
    for p in problems:
        print("check: %s" % p, file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s.add_argument("--trace", action="store_true",
                   help="per-layer metrics of traced runs")
    c = sub.add_parser("check")
    c.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    return {"diff": cmd_diff, "spread": cmd_spread, "check": cmd_check}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
