"""Measure the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For every workload it makes one untraced run per seed and one traced run on
the first seed, all through run.py, and writes for each end-to-end metric the
median and quartiles over the seeds (`statistics.quantiles(values, n=4)`),
plus the per-layer numbers of the traced run.  Compare two commits by running
this on each with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    summary = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seeds": args.seeds,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for name in names:
        runs = [run(name, seed, 0) for seed in args.seeds]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": values,
            }
            print(f"{name} {metric['name']}: median {median:.4g} {metric['unit']}, "
                  f"quartile spread {(q3 - q1) / median:.3f}", flush=True)
        traced = run(name, args.seeds[0], 1)
        summary["workloads"][name] = {
            "runs": len(runs),
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": end_to_end,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
