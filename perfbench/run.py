#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_world and measures one workload.

    python3 perfbench/run.py --workload policy-48h --seed 3 --seconds 55 --trace 0

Run from the repository root.  The first run configures and builds the
simulator under .bench_build/ (or $CARGO_TARGET_DIR); later runs only check
that the build is current.

The run launches one world per process, back to back, until --seconds have
passed, then reports medians over the worlds, except for run_s (below).
--seed seeds each world's random streams (network jitter, failures,
chaos, clients); the job trace comes from the workload's trace seed
(--trace-seed, default per workload).
Every world is checked: job conservation, no node allocated twice, the
horizon reached, every front-end request resolved.  All worlds of a run
must agree on the event-stream digest and the modelled metrics.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced worlds and prints the per-layer metrics;
a traced world whose digest differs from the untraced one is failed.
The last line of stdout is the JSON result.

run_s: the worlds of one run execute the same event stream, and each
times it in slices of a few thousand events.  The host this runs on
slows a process down by up to 2x in spells of tens to hundreds of
milliseconds, which moves any per-world total.  run_s is therefore the
sum over slices of the fastest world's time for that slice: the run's
host time with the spells taken out.  Slow phases of minutes, in which
every world is slow, stay in it (perfbench/NOTES.md).  Each world's own
total stays in its record and feeds core.trace_overhead.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A world takes seconds; a hung one is killed before the run that started
# it near the end of --seconds reaches three minutes.
WORLD_TIMEOUT_S = 120
# Modelled metrics: deterministic for a seed, so every world must agree.
MODELLED_PREFIX = "sim_"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_world; returns its path."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        command = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")
    return build_dir / "perfbench_world"


def run_world(binary, args, traced):
    """Runs one world; returns its JSON record, or None if it crashed."""
    command = [str(binary)] + args + (["--trace"] if traced else [])
    start = time.monotonic()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: world timed out: {' '.join(command)}")
        return None, time.monotonic() - start
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        log(f"perfbench: world exited {done.returncode}: {done.stderr.strip()}")
        return None, elapsed
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), elapsed
    except (ValueError, IndexError):
        log("perfbench: world printed no result")
        return None, elapsed


def value(record, name):
    return record["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int, default=0,
                        help="job-trace seed (0: the workload's default)")
    parser.add_argument("--preset", choices=("full", "tiny"), default="full")
    opts = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {opts.workload}")
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    binary = build()

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--preset", opts.preset]
    if opts.trace_seed:
        args += ["--trace-seed", str(opts.trace_seed)]

    # Worlds run until the budget is spent; a world is started only if it
    # should finish in time, but every run measures at least three (two
    # pairs when traced).
    plain, traced, failures = [], [], []
    attempted = 0
    minimum = 4 if opts.trace else 3
    start = time.monotonic()
    durations = []
    while True:
        elapsed = time.monotonic() - start
        step = statistics.median(durations) if durations else 0.0
        if attempted >= minimum and elapsed + step > opts.seconds:
            break
        with_trace = bool(opts.trace) and attempted % 2 == 1
        record, took = run_world(binary, args, with_trace)
        durations.append(took)
        attempted += 1
        if record is None:
            failures.append("world crashed")
            continue
        if record["failures"]:
            failures.extend(record["failures"])
            continue
        (traced if with_trace else plain).append(record)

    # Determinism: every world of one seed must tell the same story.
    failed = attempted - len(plain) - len(traced)
    reference = plain[0] if plain else None
    for record in plain[1:] + traced:
        if record["digest"] != reference["digest"] or len(record["slice_s"]) != len(
                reference["slice_s"]) or any(
                record["metrics"][k] != m for k, m in reference["metrics"].items()
                if k.startswith(MODELLED_PREFIX)):
            failed += 1
            failures.append(("traced" if record["traced"] else "untraced")
                            + " world diverged from the first world")

    metrics = {}
    if reference is None or (opts.trace and not traced):
        failures.append("no world completed")
    else:
        metrics = aggregate(wanted, plain, traced if opts.trace else plain)
    for name in failures:
        log(f"perfbench: FAILED: {name}")
    if reference is not None:
        log(f"perfbench: {opts.workload} seed {opts.seed}: {len(plain)} untraced + "
            f"{len(traced)} traced worlds, digest {reference['digest']}, "
            f"median world run_s {statistics.median(value(r, 'run_s') for r in plain):.4g} s")
    for name, m in metrics.items():
        log(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def aggregate(wanted, plain, measured):
    """Medians over the measured worlds, but run_s as the module says;
    counts and modelled metrics are the same in every world, so their
    median is that value."""
    derived = {
        "run_s": lambda: sum(min(times) for times in zip(
            *(r["slice_s"] for r in measured))),
        "core.trace_overhead": lambda: statistics.median(
            value(r, "run_s") for r in measured) / statistics.median(
            value(r, "run_s") for r in plain),
        "sim.events_per_s": lambda: statistics.median(
            value(r, "sim.events_per_s") for r in plain),
    }
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in derived:
            metrics[name] = {"value": derived[name](), "unit": unit}
            continue
        if name not in measured[0]["metrics"]:
            sys.exit(f"perfbench: world does not report {name}")
        printed = measured[0]["metrics"][name]["unit"]
        if printed != unit:
            sys.exit(f"perfbench: {name} printed in {printed}, declared in {unit}")
        values = [value(r, name) for r in measured]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


if __name__ == "__main__":
    main()
