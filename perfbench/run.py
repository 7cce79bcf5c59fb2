"""rbgroups benchmark runner.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--trace 0|1] [--seconds S]

Run from the root of a checkout; needs only the standard library and `src/`.
For one workload it writes the seed's relabelled input tables under
`.bench_work/`, runs the workload in a fresh interpreter (one client, jobs
back to back), times set-up again in other fresh interpreters between
passes while the first one waits, checks every output against the reference
answers, and prints each metric by name and unit.  The last line is one
JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the spans go to `.bench_out/`.
`--workload all` runs every workload untraced, one after the other.
A run measures for `run_seconds` from BENCHMARK.json; --seconds is accepted
so that the standard invocation can state it, and must equal that value.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# Set-up is timed about this many times in a run, spread evenly over it.
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the time from start to its "ready" line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup_s


def probe_setup(argv: list[str]) -> float:
    """Set-up time of a worker that only sets up."""
    proc, setup_s = start_worker(argv + ["--setup-only"])
    finish(proc)
    return setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker; return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def record_of(proc: subprocess.Popen, first_line: str = "") -> dict:
    """The JSON record a worker prints as its last line; `first_line` is
    output already read."""
    lines = (first_line + finish(proc)).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(worker record, metric values) for one workload."""
    from inputs import write_inputs
    from workloads import WORKLOADS

    # Relative to the checkout root, the workers' working directory: the
    # enumerate stream echoes the --group path, so an absolute path would make
    # the output size depend on where the checkout lives.
    workdir = Path(".bench_work") / f"{name}-seed{seed}"
    try:
        manifest = write_inputs(WORKLOADS[name].relabelled, seed, ROOT, workdir / "tables")
        manifest_path = workdir / "manifest.json"
        (ROOT / manifest_path).write_text(json.dumps(manifest))
        argv = ["--workload", name, "--manifest", str(manifest_path), "--seed", str(seed)]
        if trace:
            trace_out = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json"
            proc, _ = start_worker(argv + ["--seconds", str(seconds), "--trace", "1",
                                           "--trace-out", str(trace_out)])
            record = record_of(proc)
            return record, record["per_layer"]
        proc, setup_s = start_worker(argv + ["--seconds", str(seconds), "--trace", "0"])
        setups = [setup_s]
        next_probe = time.perf_counter()
        try:
            # After each pass the worker waits while a set-up may be timed.
            while (line := proc.stdout.readline()) == "probe\n":
                if time.perf_counter() >= next_probe:
                    setups.append(probe_setup(argv))
                    next_probe = time.perf_counter() + seconds / SETUP_PROBES
                proc.stdin.write("go\n")
                proc.stdin.flush()
        except BaseException:
            stop(proc)
            raise
        record = record_of(proc, line)
        return record, {
            "wall_s": sum(record["job_s"].values()),
            "largest_job_s": record["job_s"][WORKLOADS[name].largest],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": record["peak_rss_mib"],
        }
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds != bench["run_seconds"]:
        print(f"error: --seconds must equal run_seconds in BENCHMARK.json "
              f"({bench['run_seconds']})", file=sys.stderr)
        return 2
    if not (SRC / "rbgroups").is_dir():
        print(f"error: no rbgroups package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))} or all", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            record, values = run_workload(name, args.seed, args.seconds, args.trace)
            if set(values) != set(units):
                raise BenchError(f"{name} measured {sorted(values)}, BENCHMARK.json "
                                 f"lists {sorted(units)}")
            attempted += record["attempted"]
            failed += record["failed"]
            for failure in record["failures"]:
                print(f"{name}: FAILED {failure}")
            print(f"{name}: seed {args.seed}, {record['attempted']} jobs attempted, "
                  f"{record['failed']} failed, fail_ratio "
                  f"{record['failed'] / record['attempted']:.4f}"
                  + (f", {record['passes']} timed passes" if "passes" in record else ""))
            for job, job_s in record["job_s"].items():
                print(f"{name}: job {job!r} took {job_s:.4g} s at its fastest")
            if "record" in record:
                print(f"{name}: record {json.dumps(record['record'])}")
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in values.items():
                print(f"{name}: {metric} = {value:.6g} {units[metric]}")
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
