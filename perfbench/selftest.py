"""Self-test of the benchmark: clean runs, negative controls, trace, contract.

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

Checks, each on short runs (``--seconds 1``, one repetition):

* every workload passes its correctness check at this commit;
* the negative control (a closed-form CSV value perturbed by 1e-3
  relative, a Monte-Carlo CSV value moved 6 stderr further from its
  reference, or validate's injected coefficient error) makes failed
  operations appear;
* a Monte-Carlo row 6 stderr off its reference fails the 5-stderr band and
  one 4 stderr off passes;
* the traced run reports every per-layer metric of BENCHMARK.json and the
  untraced run every end-to-end metric, each with its unit;
* in a directory that holds only BENCHMARK.json and perfbench/, run.py exits
  nonzero without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MC_BAND, WORKLOADS, mc_row_ok  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        raise SystemExit(1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    row = ["rho", "0.5", "0.5", "2", "monte_carlo", "capacity_rd", "1.0", "0.01", "", "", "9", "100"]
    expect(not mc_row_ok(row, 1.0 + 6 * 0.01, 100, 9) and mc_row_ok(row, 1.0 + 4 * 0.01, 100, 9),
           f"the {MC_BAND:g}-stderr band rejects a 6-stderr miss and keeps a 4-stderr one")

    for name in WORKLOADS:
        clean = result_of(bench_run(name, "--trace", "0"))
        expect(clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0,
               f"{name}: clean run passes ({clean['failed']}/{clean['attempted']} failed)")
        metrics = {m["name"] for m in bench["end_to_end"]}
        expect(set(clean["metrics"]) == metrics
               and all(clean["metrics"][k]["unit"] == units[k] for k in metrics),
               f"{name}: untraced run reports the end-to-end metrics with their units")

        control = result_of(bench_run(name, "--trace", "0", "--negative-control"))
        expect(control["failed"] > 0 and not control["correct"],
               f"{name}: negative control ({WORKLOADS[name](7).control}) fails "
               f"{control['failed']}/{control['attempted']}")

        traced = result_of(bench_run(name, "--trace", "1"))
        metrics = {m["name"] for m in bench["per_layer"]}
        expect(set(traced["metrics"]) == metrics
               and all(traced["metrics"][k]["unit"] == units[k] for k in metrics),
               f"{name}: traced run reports the {len(metrics)} per-layer metrics with their units")

    work_dir = ROOT / ".perfbench_run"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("sweep_mc", "--trace", "0", cwd=bare)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               f"without the sources run.py exits {proc.returncode} and prints no result")
    try:
        work_dir.rmdir()
    except OSError:
        pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
