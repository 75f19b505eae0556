#!/usr/bin/env python3
"""Envelope checks for bench artifacts, shared by every CI job.

A bench checks its own acceptance bar and exits non-zero when it fails
(bench/bench_common.hpp); this script only checks that the artifacts a
run wrote are well formed:

  BENCH_<name>.json (--json)    schema, a bench name matching the file
                                name, a --smoke run, non-empty points,
                                per-point label/params and
                                mean/stddev/min/max/n metric keys,
                                positive total_events, events_per_sec,
                                wall time and peak RSS, plus the optional
                                --jobs/--replicas expectations below
  telemetry (--telemetry-out)   non-empty metrics counters and trace events

Usage:
  tools/check_bench.py [--jobs N] [--replicas N] ARTIFACT...

Exits 1 with one line per failed check, else prints one summary line per
artifact.
"""
import argparse
import json
import os
import sys

SCHEMA = "eslurm-bench-v2"
STATS = {"mean", "stddev", "min", "max", "n"}


def check_bench(path, doc, args, fail):
    stem = os.path.basename(path)
    name = stem[len("BENCH_"):-len(".json")] if stem.startswith("BENCH_") else None
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, not {SCHEMA!r}")
    if doc.get("bench") != name:
        fail(f"bench is {doc.get('bench')!r}, expected {name!r}")
    if args.jobs is not None and doc.get("jobs") != args.jobs:
        fail(f"jobs is {doc.get('jobs')}, expected {args.jobs}")
    if args.replicas is not None and doc.get("replicas") != args.replicas:
        fail(f"replicas is {doc.get('replicas')}, expected {args.replicas}")
    if doc.get("smoke") is not True:
        fail("not a --smoke run")
    if not (
        (doc.get("total_events") or 0) > 0 and (doc.get("events_per_sec") or 0) > 0
    ):
        fail(f"total_events {doc.get('total_events')}, "
             f"events_per_sec {doc.get('events_per_sec')}: expected both > 0")
    if not ((doc.get("wall_seconds") or 0) > 0 and (doc.get("peak_rss_bytes") or 0) > 0):
        fail(f"wall_seconds {doc.get('wall_seconds')}, "
             f"peak_rss_bytes {doc.get('peak_rss_bytes')}: expected both > 0")
    points = doc.get("points") or []
    if not points:
        fail("no sweep points recorded")
    for point in points:
        label = point.get("label")
        if not (label and point.get("params")):
            fail(f"point {label!r} has no label or no params")
        if args.replicas is not None and len(point.get("replicas", [])) != args.replicas:
            fail(f"point {label!r} has {len(point.get('replicas', []))} replicas")
        for metric, stats in point.get("metrics", {}).items():
            if not STATS <= stats.keys():
                fail(f"point {label!r} metric {metric!r} lacks {sorted(STATS - stats.keys())}")
    summary = f"bench {doc.get('bench')}, {len(points)} points"
    if doc.get("events_per_sec"):
        summary += f", {doc['events_per_sec']:.3g} events/s"
    return summary + f", peak RSS {(doc.get('peak_rss_bytes') or 0) / 1e6:.1f} MB"


def check_telemetry(doc, fail):
    counters = (doc.get("metrics") or {}).get("counters")
    if not counters:
        fail("no metrics counters recorded")
    if not doc.get("traceEvents"):
        fail("no trace events recorded")
    return f"{len(counters or {})} counters, {len(doc.get('traceEvents') or [])} trace events"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("artifacts", nargs="+")
    parser.add_argument("--jobs", type=int, help="expected --jobs value")
    parser.add_argument("--replicas", type=int,
                        help="expected --replicas value and per-point replica count")
    args = parser.parse_args()

    failures = 0
    for path in args.artifacts:
        errors = []
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            errors.append(f"unreadable: {e}")
            doc = None
        if doc is not None and not isinstance(doc, dict):
            errors.append("not a JSON object")
        elif doc is not None:
            fail = errors.append
            summary = (check_telemetry(doc, fail) if "traceEvents" in doc
                       else check_bench(path, doc, args, fail))
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        if errors:
            failures += 1
        else:
            print(f"{path} ok: {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
