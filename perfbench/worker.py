"""One benchmark workload in a fresh interpreter; started by run.py.

Set-up builds every input of the workload through the library's public
constructors and then prints "ready": run.py times interpreter start to that
line as set-up time.  With --setup-only the worker exits there.  Otherwise it
times passes over the workload's fixed job list, one job after the other in
this one thread, and prints one JSON record as its last line.  A job on
relabelled input takes the next relabelling in each pass.  A job's time is
the mean over its inputs of each input's fastest time over the untraced
passes: other tenants of a shared machine only ever add time, so the
fastest repetition is the least disturbed one.

With --trace 1 it runs untraced and traced passes in turn, so that both
kinds see the same load on a shared machine.  The tracing overhead is the
sum of the jobs' fastest traced times over the sum of their fastest
untraced times, minus 1.  Each per-layer metric is its median over the
traced passes, and the spans of every traced pass go to --trace-out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import workloads
from spans import Tracer

MAX_FAILURES_SHOWN = 5
# A run makes at least this many passes of each kind.
MIN_PASSES = 3


def run_pass(jobs, k: int, tracer=None) -> dict:
    """Pass k: run every job once, on its k-th input.  A raise or a budget
    refusal counts as a failed job."""
    times, failures = [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        # So that one job's garbage is not collected in the next job's time.
        gc.collect()
        t0 = time.perf_counter()
        try:
            error = job.runs[k % len(job.runs)]()
        except Exception as exc:  # noqa: BLE001 - recorded as a failure, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if error is not None:
            failures.append(f"{job.name}: {error}")
    return {"k": k, "times": times, "failures": failures}


def timed_passes(run_round, seconds: float, min_rounds: int, between=None) -> list:
    """Rounds 0, 1, ...: at least `min_rounds`, and another only while it
    should end within `seconds`.  `between`, if given, runs after each round."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return rounds


def job_times(jobs, passes) -> list[float]:
    """Each job's time: the mean over its inputs of the input's fastest
    time over `passes`."""
    out = []
    for j, job in enumerate(jobs):
        n = len(job.runs)
        out.append(sum(min(p["times"][j] for p in passes if p["k"] % n == v)
                       for v in range(n)) / n)
    return out


def await_setup_probe() -> None:
    """Let run.py time a set-up in a fresh interpreter while this one waits."""
    print("probe", flush=True)
    sys.stdin.readline()


def traced_round(jobs, k: int) -> tuple[dict, dict, Tracer]:
    """Untraced pass k, then traced pass k."""
    untraced = run_pass(jobs, k)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(jobs, k, tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    loadavg = os.getloadavg()[0]
    # enumerate_rb_operators warns on every group above order 12.
    warnings.simplefilter("ignore")

    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.build(json.loads(args.manifest.read_text()))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Enough passes that every job runs on each of its inputs.
    min_passes = max(MIN_PASSES, *(len(job.runs) for job in jobs))
    if args.trace:
        rounds = timed_passes(lambda k: traced_round(jobs, k), args.seconds, min_passes)
        untraced = [r[0] for r in rounds]
        passes = [p for r in rounds for p in r[:2]]
        tracers = [r[2] for r in rounds]
        untraced_wall = sum(job_times(jobs, untraced))
        traced_wall = sum(job_times(jobs, [r[1] for r in rounds]))
        per_pass = [tracer.metrics() for tracer in tracers]
        # Counts repeat exactly from pass to pass; times take the median.
        per_layer = {
            name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                [m[name] for m in per_pass])
            for name, value in per_pass[0].items()
        }
        per_layer["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "loadavg_1min": loadavg,
            "traced_passes": len(rounds),
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "jobs": [job.name for job in jobs],
        }
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps({
            "record": record,
            "per_layer": per_layer,
            "spans": [tracer.spans for tracer in tracers],
        }))
        out = {"per_layer": per_layer, "record": record}
    else:
        untraced = passes = timed_passes(lambda k: run_pass(jobs, k), args.seconds,
                                         min_passes, await_setup_probe)
        out = {
            "passes": len(passes),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    out["job_s"] = dict(zip((job.name for job in jobs), job_times(jobs, untraced)))
    failures = [f for p in passes for f in p["failures"]]
    out.update(
        attempted=len(jobs) * len(passes),
        failed=len(failures),
        failures=failures[:MAX_FAILURES_SHOWN],
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
