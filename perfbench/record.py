"""Run every workload over several seeds and report each metric's spread.

Usage (from the root of a source checkout):

    python3 perfbench/record.py [--append LABEL]

For every workload of BENCHMARK.json, seeds 1 to 10 each get one
``perfbench/run.py --trace 0`` run of ``run_seconds``.  For each end-to-end
metric, and for the raw clock times and slowdowns of the facts line, the
script prints the median, the quartiles (``statistics.quantiles(n=4)``) and their distance as
a share of the median, next to a third of the metric's bound.
With ``--append LABEL`` it also makes one traced run per workload and
appends the medians, quartiles, per-layer figures (seed 1) and the machine
and code facts to perfbench/trajectory.json as one point of the trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = range(1, 11)
MACHINE_AND_CODE = ("nproc", "python", "numpy", "scipy", "git_sha", "src_sha256", "src_lines")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    facts = json.loads(lines[-2].removeprefix("facts "))
    return facts, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--append", metavar="LABEL", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    point = {"label": args.append, "run_seconds": seconds, "workloads": {}}

    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            facts, result = run(name, seed, seconds, 0)
            for key, value in facts["raw_medians"].items():
                values.setdefault("raw." + key, []).append(value)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(metric, {}).get("bound")
            note = f" (a third of the bound: {bound / 3:.3f})" if bound else ""
            print(f"  {name} {metric}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {spread:.3f}{note}", flush=True)
        entry = {"seeds": [SEEDS[0], SEEDS[-1]],
                 "attempted": attempted, "failed": failed,
                 "end_to_end": {k: v for k, v in summary.items() if k in bounds},
                 "raw": {k: v for k, v in summary.items() if k not in bounds}}
        if args.append:
            facts, traced = run(name, SEEDS[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["inputs_first_seed"] = facts["inputs"]
            point["facts"] = {k: v for k, v in facts.items() if k in MACHINE_AND_CODE}
        point["workloads"][name] = entry

    if args.append:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended {args.append!r} to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
