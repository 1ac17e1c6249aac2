#!/usr/bin/env python3
"""Validates an exported Chrome trace (and optional metrics / timeseries JSON).

Usage: validate_trace.py TRACE_JSON [METRICS_JSON] [TIMESERIES_JSON]

Checks, exiting non-zero on the first violation:
  - the trace file is valid JSON with a non-empty "traceEvents" list;
  - every event carries args.span_id, span ids are unique;
  - every non-zero args.parent_id refers to a recorded span with the same
    tid (= trace id) and a strictly smaller causal key (ts, then args.order),
    so parent chains strictly decrease and cannot cycle;
  - every span tree is acyclic by explicit parent-chain traversal (belt and
    braces on top of the key argument);
  - the optional metrics file is valid JSON with the counters / gauges /
    histograms sections;
  - the optional timeseries file matches the MetricsTimeSeries::ToJson
    schema: a numeric "window_s" and a "samples" list of {t, name, value}
    rows with non-decreasing t.
"""

import json
import sys

def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def causal_key(ev):
    return (ev["ts"], ev["args"].get("order", ev["args"]["span_id"]))


def validate_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    by_id = {}
    for ev in events:
        args = ev.get("args", {})
        span_id = args.get("span_id")
        if not isinstance(span_id, int) or span_id <= 0:
            fail(f"{path}: event without a positive args.span_id: {ev}")
        if span_id in by_id:
            fail(f"{path}: duplicate span id {span_id}")
        by_id[span_id] = ev
    for ev in events:
        span_id = ev["args"]["span_id"]
        parent_id = ev["args"].get("parent_id", 0)
        if parent_id == 0:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            fail(f"{path}: span {span_id} has unknown parent {parent_id}")
        if causal_key(parent) >= causal_key(ev):
            fail(f"{path}: span {span_id} parent {parent_id} not causally "
                 "before it (cycle risk)")
        if parent.get("tid") != ev.get("tid"):
            fail(f"{path}: span {span_id} crosses traces to parent "
                 f"{parent_id}")
    # Explicit acyclicity: walk every parent chain once, memoizing spans
    # already proven to reach a root.
    ok = set()
    for ev in events:
        chain = []
        span_id = ev["args"]["span_id"]
        while span_id != 0 and span_id not in ok:
            if span_id in chain:
                fail(f"{path}: parent cycle through span {span_id}")
            chain.append(span_id)
            span_id = by_id[span_id]["args"].get("parent_id", 0)
        ok.update(chain)
    roots = sum(1 for ev in events if ev["args"].get("parent_id", 0) == 0)
    print(f"validate_trace: {path}: {len(events)} span(s), {roots} tree(s), "
          "acyclic")


def validate_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            fail(f"{path}: missing \"{section}\" section")
    print(f"validate_trace: {path}: {len(doc['counters'])} counter(s), "
          f"{len(doc['gauges'])} gauge(s), {len(doc['histograms'])} "
          "histogram(s)")


def validate_timeseries(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("window_s"), (int, float)):
        fail(f"{path}: missing numeric \"window_s\"")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not samples:
        fail(f"{path}: no samples")
    last_t = None
    names = set()
    for row in samples:
        if not isinstance(row.get("t"), (int, float)):
            fail(f"{path}: sample without numeric t: {row}")
        if not isinstance(row.get("name"), str) or not row["name"]:
            fail(f"{path}: sample without a name: {row}")
        if "value" not in row:
            fail(f"{path}: sample without a value: {row}")
        if last_t is not None and row["t"] < last_t:
            fail(f"{path}: sample times go backwards at t={row['t']}")
        last_t = row["t"]
        names.add(row["name"])
    windows = len({row["t"] for row in samples})
    print(f"validate_trace: {path}: {len(samples)} sample(s), {windows} "
          f"window(s), {len(names)} metric(s)")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    validate_trace(sys.argv[1])
    if len(sys.argv) > 2:
        validate_metrics(sys.argv[2])
    if len(sys.argv) > 3:
        validate_timeseries(sys.argv[3])
    print("validate_trace: OK")


if __name__ == "__main__":
    main()
