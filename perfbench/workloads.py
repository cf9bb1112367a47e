"""The benchmark workloads: inputs made from a seed, and the output checks.

Each workload writes the program's input (a sweep config, or a ``validate``
argument list) from ``--seed`` alone, and checks the CSV and report the CLI
leaves behind.  An operation is one grid point of a sweep or one check line
of ``validate``; it fails if its rows are missing or malformed or if a value
misses its reference.

* ``sweep_analytic``: closed_form, quadrature and asymptotic modes over a
  rho grid, m in {1, 2, 3} and two seeded theta.  Exercises the capacity
  routes, the Bessel-series closed forms and specfun; never calls montecarlo.
* ``sweep_mc``: the same kind of grid, monte_carlo mode only, m in {2, 3}
  (m = 1 skips the Newton quantile).  Exercises montecarlo, the copula
  sampler and ``power_quantile``; never calls the Bessel or quadrature code.
* ``validate_matrix``: ``swiptrelay validate`` on a 2 x 2 (m, theta)
  matrix: many thresholds through ``product_cdf_general``, one large sorted
  draw per cell for the DKW band, and the closed-form adjudication.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable

# Cross-route bound that validation.py applies to outage and adjudication.
ROUTE_TOL = 1e-9
# Monte-Carlo rows must lie within this many standard errors of the
# deterministic reference; P(|Z| > 5) is 6e-7, so a correct estimator over a
# few hundred rows almost never fails.
MC_BAND = 5.0
# The negative control moves a closed-form value by this relative amount,
PERTURBATION = 1e-3
# and a Monte-Carlo estimate this many of its standard errors further from
# its reference.
CONTROL_STDERRS = 6.0

SYSTEM = {
    "source_power": 10.0,
    "noise_power": 1e-2,
    "eh_efficiency": 0.7,
    "dist_sr": 2.0,
    "dist_rd": 2.0,
    "pathloss_exp": 2.5,
}
THRESHOLD = 1.0  # 0 dB

# Grids are small so that one repetition takes a few seconds: a shared
# machine's speed changes in bursts of about that length, and a median over
# many short repetitions rides them out better than a few long ones.
ANALYTIC_RHO = (0.5,)
MC_RHO = (0.3, 0.7)
MC_SAMPLES = 100_000

VALIDATE_MS = (1, 2)
# validate applies its own 3-stderr and 99% DKW bands, which a correct
# estimator misses at a few seeds in a hundred.  Its Monte-Carlo seed is
# therefore fixed at the CLI default, and the benchmark seed picks the theta
# pair (-t, t) from these magnitudes; every (m, theta) cell they give passes
# at that MC seed.  A symmetric pair keeps the quadrature cost of a
# repetition nearly the same whatever t the seed picks.
VALIDATE_THETAS = (0.2, 0.6, 1.0)
VALIDATE_MC_SEED = 12345
VALIDATE_SAMPLES = 100_000
VALIDATE_GRID_POINTS = 10


@dataclass(frozen=True)
class Point:
    rho: float
    theta: float
    m: int


@dataclass
class Workload:
    name: str
    argv: list[str]                 # CLI arguments without "-o CSV"
    config: str | None              # sweep config text, or None
    attempted: int                  # operations in one repetition
    check: Callable[[list[list[str]], str, int | None, bool], int]
    facts: dict
    control_argv: tuple[str, ...] = ()   # extra CLI arguments of the negative control
    control: str = ""                    # what the negative control changes


def snr_scales(rho: float) -> tuple[float, float]:
    """(gamma_hat_r, gamma_hat_d) of the benchmark system, from first principles."""
    s = SYSTEM
    pl_sr = s["dist_sr"] ** s["pathloss_exp"]
    pl_rd = s["dist_rd"] ** s["pathloss_exp"]
    ghr = (1.0 - rho) * s["source_power"] / (pl_sr * s["noise_power"])
    ghd = s["eh_efficiency"] * rho * s["source_power"] / (pl_sr * pl_rd * s["noise_power"])
    return ghr, ghd


def _config(name: str, modes: str, ms, thetas, rhos, mc: dict) -> str:
    lines = [f"name = {name}"]
    lines += [f"{key} = {value!r}" for key, value in SYSTEM.items()]
    lines += [
        "m = " + ",".join(str(m) for m in ms),
        "theta = " + ",".join(repr(t) for t in thetas),
        f"threshold = {THRESHOLD!r}",
        f"modes = {modes}",
        "[sweep]",
        "variable = rho",
        "grid = " + ",".join(repr(r) for r in rhos),
        "[mc]",
    ]
    lines += [f"{key} = {value}" for key, value in mc.items()]
    return "\n".join(lines) + "\n"


def _seeded_thetas(rng: random.Random, count: int) -> tuple[float, ...]:
    """One theta per equal stratum of [-1, 1], so every seed spans the range
    and the quadrature cost varies little from seed to seed."""
    return tuple(round(-1.0 + 2.0 * (i + rng.random()) / count, 4) for i in range(count))


def _read_points(rows, points: list[Point]) -> dict[Point, dict[tuple[str, str], list[str]]]:
    """CSV rows grouped by grid point and keyed by (mode, metric)."""
    by_key = {(p.rho, p.theta, p.m): p for p in points}
    grouped: dict[Point, dict[tuple[str, str], list[str]]] = {}
    for row in rows:
        point = by_key.get((float(row[1]), float(row[2]), int(row[3])))
        if point is None:
            raise ValueError(f"row for an unknown grid point: {row}")
        grouped.setdefault(point, {})[(row[4], row[5])] = row
    return grouped


def _params_ok(point: Point, rows) -> bool:
    ghr, ghd = snr_scales(point.rho)
    got_r = float(rows[("params", "param.gamma_hat_r")][6])
    got_d = float(rows[("params", "param.gamma_hat_d")][6])
    return math.isclose(got_r, ghr, rel_tol=ROUTE_TOL) and math.isclose(got_d, ghd, rel_tol=ROUTE_TOL)


def _sweep_check(points: list[Point], point_ok, expected_keys: set, perturb):
    """Count failed grid points; a point fails on any missing row or bad value.

    The negative control calls ``perturb(point, rows)`` on the rows of the
    first grid point before they are checked.
    """
    def check(rows, stdout, exit_code, negative_control):
        if exit_code != 0:
            return len(points)
        try:
            grouped = _read_points(rows, points)
            if negative_control:
                perturb(points[0], grouped[points[0]])
        except (KeyError, ValueError, IndexError):
            return len(points)
        failed = 0
        for point in points:
            got = grouped.get(point, {})
            try:
                ok = set(got) == expected_keys and point_ok(point, got)
            except (KeyError, ValueError, IndexError):
                ok = False
            failed += not ok
        return failed
    return check


def _value(rows, mode: str, metric: str) -> float:
    return float(rows[(mode, metric)][6])


def sweep_analytic(seed: int) -> Workload:
    rng = random.Random(f"sweep_analytic/{seed}")
    thetas = _seeded_thetas(rng, 2)
    ms = (1, 2, 3)
    points = [Point(r, t, m) for r in ANALYTIC_RHO for t in thetas for m in ms]
    params = {f"param.{k}" for k in (*SYSTEM, "rho", "gamma_hat_r", "gamma_hat_d", "threshold")}
    metrics = ("capacity_sr", "capacity_rd", "capacity_min", "outage")
    keys = ({("params", p) for p in params}
            | {(mode, m) for mode in ("closed_form", "quadrature") for m in metrics}
            | {("closed_form", "mean_snr_d"), ("asymptotic", "capacity_sr"), ("asymptotic", "outage")})

    def point_ok(point: Point, rows) -> bool:
        if not _params_ok(point, rows):
            return False
        for mode in ("closed_form", "quadrature"):
            sr, rd, cmin = (_value(rows, mode, k) for k in metrics[:3])
            if cmin != min(sr, rd) or not 0.0 <= _value(rows, mode, "outage") <= 1.0:
                return False
        for metric in ("capacity_sr", "capacity_rd", "outage"):
            gap = abs(_value(rows, "closed_form", metric) - _value(rows, "quadrature", metric))
            if not gap <= ROUTE_TOL:
                return False
        if not _value(rows, "closed_form", "mean_snr_d") > 0.0:
            return False
        # E[ln gamma] < E[ln(1 + gamma)], so the high-SNR capacity lies below.
        if not _value(rows, "asymptotic", "capacity_sr") < _value(rows, "closed_form", "capacity_sr"):
            return False
        # The asymptotic relay CDF m^m t^m / (ghr^m m!) bounds the exact one from
        # above and the FGM copula is increasing, so the outage bound holds; it is
        # nan exactly where that polynomial exceeds 1.
        ghr, _ = snr_scales(point.rho)
        f_r_inf = (point.m * THRESHOLD / ghr) ** point.m / math.factorial(point.m)
        asym = _value(rows, "asymptotic", "outage")
        if f_r_inf > 1.0:
            return math.isnan(asym)
        return _value(rows, "closed_form", "outage") - ROUTE_TOL <= asym <= 1.0

    def perturb(point: Point, rows) -> None:
        row = rows[("closed_form", "capacity_rd")]
        row[6] = repr(float(row[6]) * (1.0 + PERTURBATION))

    return Workload(
        name="sweep_analytic",
        argv=["sweep", "{config}", "--workers", "1"],
        config=_config("sweep_analytic", "closed_form,quadrature,asymptotic", ms, thetas,
                       ANALYTIC_RHO, {"workers": 1}),
        attempted=len(points),
        check=_sweep_check(points, point_ok, keys, perturb),
        facts={"thetas": thetas, "ms": ms, "rho": ANALYTIC_RHO},
        control=f"closed_form capacity_rd of the first grid point times 1 + {PERTURBATION:g}",
    )


def mc_references(points: list[Point]) -> dict[Point, dict[str, float]]:
    """Meijer-G capacities and the closed-form mean SNR at each grid point."""
    from swiptrelay.product_dist import mean_snr_factor
    from swiptrelay.swipt_metrics import capacity_rd_meijer, capacity_sr_meijer

    refs = {}
    for p in points:
        ghr, ghd = snr_scales(p.rho)
        refs[p] = {
            "capacity_sr": capacity_sr_meijer(ghr, p.m),
            "capacity_rd": capacity_rd_meijer(ghd, p.m, p.theta),
            "mean_snr_d": ghd * mean_snr_factor(p.m, p.theta),
        }
    return refs


def mc_row_ok(row: list[str], reference: float, samples: int, seed: int) -> bool:
    """An MC row is well formed and its mean lies within MC_BAND stderr of the reference."""
    est, stderr = float(row[6]), float(row[7])
    return (int(row[11]) == samples and int(row[10]) == seed
            and math.isfinite(stderr) and stderr > 0.0
            and abs(est - reference) <= MC_BAND * stderr)


def sweep_mc(seed: int) -> Workload:
    rng = random.Random(f"sweep_mc/{seed}")
    thetas = _seeded_thetas(rng, 2)
    mc_seed = rng.randrange(2**32)
    ms = (2, 3)
    points = [Point(r, t, m) for r in MC_RHO for t in thetas for m in ms]
    params = {f"param.{k}" for k in (*SYSTEM, "rho", "gamma_hat_r", "gamma_hat_d", "threshold")}
    metrics = ("capacity_sr", "capacity_rd", "capacity_min", "outage", "mean_snr_d")
    keys = {("params", p) for p in params} | {("monte_carlo", m) for m in metrics}
    refs: dict[Point, dict[str, float]] = {}

    def references() -> dict[Point, dict[str, float]]:
        if not refs:
            refs.update(mc_references(points))
        return refs

    def point_ok(point: Point, rows) -> bool:
        if not _params_ok(point, rows):
            return False
        for metric, reference in references()[point].items():
            if not mc_row_ok(rows[("monte_carlo", metric)], reference, MC_SAMPLES, mc_seed):
                return False
        # Outage and capacity_min have no reference here: the MC joint law
        # differs from the outage formula's, and E[min] != min(E).  Their
        # sample means still obey the bounds below.
        cmin = _value(rows, "monte_carlo", "capacity_min")
        cap_floor = min(_value(rows, "monte_carlo", "capacity_sr"), _value(rows, "monte_carlo", "capacity_rd"))
        return cmin <= cap_floor * (1.0 + ROUTE_TOL) and 0.0 <= _value(rows, "monte_carlo", "outage") <= 1.0

    def perturb(point: Point, rows) -> None:
        row = rows[("monte_carlo", "capacity_rd")]
        est, stderr = float(row[6]), float(row[7])
        away = 1.0 if est >= references()[point]["capacity_rd"] else -1.0
        row[6] = repr(est + away * CONTROL_STDERRS * stderr)

    return Workload(
        name="sweep_mc",
        argv=["sweep", "{config}", "--workers", "1"],
        config=_config("sweep_mc", "monte_carlo", ms, thetas, MC_RHO,
                       {"samples": MC_SAMPLES, "seed": mc_seed, "workers": 1}),
        attempted=len(points),
        check=_sweep_check(points, point_ok, keys, perturb),
        facts={"thetas": thetas, "ms": ms, "rho": MC_RHO, "mc_seed": mc_seed,
               "samples": MC_SAMPLES},
        control=(f"monte_carlo capacity_rd of the first grid point moved {CONTROL_STDERRS:g} "
                 "of its stderr further from the Meijer-G reference"),
    )


def validate_matrix(seed: int) -> Workload:
    rng = random.Random(f"validate_matrix/{seed}")
    magnitude = rng.choice(VALIDATE_THETAS)
    thetas = (-magnitude, magnitude)
    cells = len(VALIDATE_MS) * len(thetas)
    # Six checks per cell plus two adjudication checks per m.
    expected = 6 * cells + 2 * len(VALIDATE_MS)

    def check(rows, stdout, exit_code, negative_control):
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        failed = sum(ln.startswith("[FAIL]") for ln in lines) + max(expected - len(lines), 0)
        # The verdict, the exit code and the CSV must agree with the check lines.
        verdict_ok = (exit_code == 0) == (failed == 0) and exit_code in (0, 1)
        if not verdict_ok or len(rows) != len(lines):
            return max(expected, len(lines))
        return failed

    argv = ["validate", "--m", ",".join(map(str, VALIDATE_MS)),
            "--theta=" + ",".join(repr(t) for t in thetas),
            "--samples", str(VALIDATE_SAMPLES), "--grid-points", str(VALIDATE_GRID_POINTS),
            "--seed", str(VALIDATE_MC_SEED), "--workers", "1"]
    return Workload(
        name="validate_matrix",
        argv=argv,
        config=None,
        attempted=expected,
        check=check,
        facts={"thetas": thetas, "ms": VALIDATE_MS, "mc_seed": VALIDATE_MC_SEED,
               "samples": VALIDATE_SAMPLES, "grid_points": VALIDATE_GRID_POINTS},
        control_argv=("--inject-coefficient-error",),
        control="validate --inject-coefficient-error",
    )


WORKLOADS = {w.__name__: w for w in (sweep_analytic, sweep_mc, validate_matrix)}


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a swiptrelay CSV (header dropped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]
