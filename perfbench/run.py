"""swiptrelay benchmark: one workload, end-to-end or traced per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--negative-control]

Each repetition runs the public CLI entry point ``swiptrelay.cli.main`` in a
fresh interpreter (perfbench/child.py) with one worker and BLAS pinned to
one thread, on inputs perfbench/workloads.py makes from ``--seed``.
Repetitions continue until ``--seconds`` is spent and every output is
checked.  Times are put on a reference machine speed by the probe in
perfbench/calibrate.py.  With ``--trace 0`` the result carries the
end-to-end metrics (medians over repetitions); with ``--trace 1`` untraced
and traced repetitions alternate and the result carries the per-layer
metrics of the traced ones (perfbench/spans.py).  ``--negative-control`` perturbs one CSV
value by 1e-3 relative, or injects validate's coefficient error, so that
failed operations must appear.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` divided by
``attempted`` is the failed fraction.  The line before it holds the machine
and code facts of the run, with the raw clock times and slowdowns of every
repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "swiptrelay"
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".perfbench_run"
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(SRC))

from calibrate import slowdown  # noqa: E402
from spans import TOP_LEVEL, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, read_csv  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark could not run the program at all."""


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    parse_s: float
    failed: int
    spans: str | None
    setup_slowdown: float      # machine slowdown right before the spawn
    wall_slowdown: float       # mean of that and the slowdown after the exit


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def run_rep(w: Workload, tmp: Path, index: int, trace: bool, negative_control: bool) -> Rep:
    config = tmp / "workload.cfg"
    csv_path = tmp / f"rep{index}.csv"
    argv = [str(config) if a == "{config}" else a for a in w.argv] + ["-o", str(csv_path)]
    if negative_control:
        argv += list(w.control_argv)
    job = {
        "argv": argv,
        "config": str(config) if w.config is not None else None,
        "trace": trace,
        "result": str(tmp / f"rep{index}.json"),
        "spans": str(tmp / f"rep{index}.npz") if trace else None,
    }
    job_path = tmp / f"job{index}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    before = slowdown()
    t_spawn = time.monotonic()
    _run([sys.executable, str(CHILD), str(job_path)])
    after = slowdown()
    res = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    if res["error"]:
        print(f"rep {index}: {res['error']}", file=sys.stderr)
    rows = read_csv(str(csv_path)) if csv_path.exists() else []
    failed = w.check(rows, res["stdout"], res["exit_code"], negative_control)
    csv_path.unlink(missing_ok=True)
    return Rep(
        setup_s=res["t_ready"] - t_spawn,
        wall_s=res["t_done"] - res["t_start"],
        peak_rss_mb=res["peak_rss_kb"] / 1024.0,
        parse_s=res["parse_s"],
        failed=failed,
        spans=job["spans"],
        setup_slowdown=before,
        wall_slowdown=0.5 * (before + after),
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(reps: list[Rep]) -> dict:
    """Medians over repetitions; times at the reference speed."""
    return {
        "setup_s": _metric(statistics.median(r.setup_s / r.setup_slowdown for r in reps), "s"),
        "wall_s": _metric(statistics.median(r.wall_s / r.wall_slowdown for r in reps), "s"),
        "peak_rss_mb": _metric(statistics.median(r.peak_rss_mb for r in reps), "MB"),
    }


def raw_medians(reps: list[Rep]) -> dict:
    """Medians of the times as read off the clock, and of the slowdowns."""
    return {key: statistics.median(getattr(r, key) for r in reps)
            for key in ("setup_s", "wall_s", "setup_slowdown", "wall_slowdown")}


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer figures of one traced repetition, by metric name."""
    layers, counters = summarize(rep.spans)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    builds = counters.get("product_dist.coeff_builds", 0)
    pq_samples = counters.get("fading.power_quantile.samples", 0)
    out = {
        "specfun.bessel_k.calls": calls("specfun.bessel_k"),
        "specfun.bessel_k.self_s": self_s("specfun.bessel_k"),
        "specfun.meijer_g.calls": calls("specfun.meijer_g"),
        "specfun.meijer_g.self_s": self_s("specfun.meijer_g"),
        "product_dist.pdf_closed.calls": calls("product_dist.pdf_closed"),
        "product_dist.pdf_closed.self_s": self_s("product_dist.pdf_closed"),
        "product_dist.coeff_builds": builds,
        "product_dist.coeff_builds_per_model": ratio(builds, counters.get("product_dist.models", 0)),
        "product_dist.cdf_general.calls": calls("product_dist.cdf_general"),
        "product_dist.cdf_general.self_s": self_s("product_dist.cdf_general"),
        "product_dist.survival_closed.calls": calls("product_dist.survival_closed"),
        "product_dist.survival_closed.self_s": self_s("product_dist.survival_closed"),
        "swipt_metrics.cap_rd_quad.calls": calls("swipt_metrics.cap_rd_quad"),
        "swipt_metrics.cap_rd_quad.self_s": self_s("swipt_metrics.cap_rd_quad"),
        "swipt_metrics.pdf_evals_per_cap_rd": ratio(calls("product_dist.pdf_closed"),
                                                     calls("swipt_metrics.cap_rd_quad")),
        "swipt_metrics.cap_sr_quad.self_s": self_s("swipt_metrics.cap_sr_quad"),
        "swipt_metrics.cap_sr_meijer.self_s": self_s("swipt_metrics.cap_sr_meijer"),
        "swipt_metrics.cap_rd_meijer.self_s": self_s("swipt_metrics.cap_rd_meijer"),
        "swipt_metrics.outage_closed.self_s": self_s("swipt_metrics.outage_closed"),
        "swipt_metrics.outage_quad.self_s": self_s("swipt_metrics.outage_quad"),
        "fading.power_cdf.calls": calls("fading.power_cdf"),
        "fading.power_pdf.calls": calls("fading.power_pdf"),
        "copula.conditional_cdf.calls": calls("copula.conditional_cdf"),
        "fading.power_quantile.samples": pq_samples,
        "fading.power_quantile.self_s": self_s("fading.power_quantile"),
        "fading.power_quantile.s_per_1e6": ratio(self_s("fading.power_quantile") * 1e6, pq_samples),
        "copula.sample_pair.samples": counters.get("copula.sample_pair.samples", 0),
        "copula.sample_pair.self_s": self_s("copula.sample_pair"),
        "montecarlo.simulate_metrics.self_s": self_s("montecarlo.simulate_metrics"),
        "montecarlo.samples": counters.get("montecarlo.samples", 0),
        "sweepcfg.parse_s": rep.parse_s,
        "sweep.points": counters.get("sweep.points", 0),
        "sweep.rows": counters.get("sweep.rows", 0),
        "sweep.write_csv_s": layers.get("sweep.write_csv", {}).get("total_s", 0.0),
        "validation.checks": counters.get("validation.checks", 0),
        "validation.checks_failed": counters.get("validation.checks_failed", 0),
        "trace.unattributed_s": sum(self_s(name) for name in TOP_LEVEL),
    }
    return out


UNITS = {"calls": "count", "samples": "count", "points": "count", "rows": "count",
         "checks": "count", "checks_failed": "count", "coeff_builds": "count"}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last == "s_per_1e6":
        return "s/1e6"
    return UNITS.get(last, "ratio")


def per_layer_metrics(untraced: list[Rep], traced: list[Rep], failed_frac: float) -> dict:
    """Medians over traced repetitions; times at the reference speed."""
    per_rep = []
    for rep in traced:
        figures = layer_metrics(rep)
        per_rep.append({name: value / rep.wall_slowdown if _unit(name) in ("s", "s/1e6") else value
                        for name, value in figures.items()})
    out = {name: _metric(statistics.median(m[name] for m in per_rep), _unit(name))
           for name in per_rep[0]}
    overhead = (statistics.median(r.wall_s / r.wall_slowdown for r in traced)
                - statistics.median(r.wall_s / r.wall_slowdown for r in untraced))
    out["trace.overhead_s"] = _metric(overhead, "s")
    out["failed_frac"] = _metric(failed_frac, "ratio")
    return out


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def facts(w: Workload, seed: int) -> dict:
    import numpy
    import scipy

    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "inputs": w.facts,
    }


def measure(w: Workload, seconds: float, trace: bool, negative_control: bool):
    # The two cores slow down independently, so the speed probes and the
    # repetitions they correct share one core; children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp_name:
            tmp = Path(tmp_name)
            if w.config is not None:
                (tmp / "workload.cfg").write_text(w.config, encoding="utf-8")
            # Warm the file cache and bytecode so the first repetition's set-up
            # is not an outlier.
            _run([sys.executable, "-c", "import swiptrelay.cli"])
            untraced: list[Rep] = []
            traced: list[Rep] = []
            start = time.monotonic()
            while True:
                untraced.append(run_rep(w, tmp, 2 * len(untraced), False, negative_control))
                if trace:
                    traced.append(run_rep(w, tmp, 2 * len(traced) + 1, True, negative_control))
                elapsed = time.monotonic() - start
                if elapsed * (1.0 + 1.0 / len(untraced)) > seconds:
                    break
            reps = untraced + traced
            attempted = w.attempted * len(reps)
            failed = sum(r.failed for r in reps)
            if trace:
                metrics = per_layer_metrics(untraced, traced, failed / attempted)
            else:
                metrics = end_to_end_metrics(untraced)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    return untraced, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb one output (or inject validate's coefficient error)")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no swiptrelay sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed)
    run_facts = facts(w, args.seed)
    try:
        untraced, attempted, failed, metrics = measure(
            w, args.seconds, bool(args.trace), args.negative_control)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()
                        if not args.trace or k == "trace.overhead_s")
    print(f"{w.name} seed={args.seed}: {summary}, failed_frac={failed / attempted:.6g} ratio "
          f"({failed}/{attempted})")
    print("facts " + json.dumps(dict(run_facts, repetitions=len(untraced),
                                     raw_medians=raw_medians(untraced),
                                     reps=[[r.setup_s, r.wall_s, r.setup_slowdown, r.wall_slowdown]
                                           for r in untraced])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
