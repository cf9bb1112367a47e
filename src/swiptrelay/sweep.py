"""Sweep execution: turn a SweepSpec into deterministic CSV rows.

Row order is fixed (grid value, theta, m, mode, metric) and floats are
printed at 12 significant digits, so a rerun with the same spec and seed
reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import os
import tempfile

from .product_dist import mean_snr_factor
from .specfun import QuadratureError
from .swipt_metrics import (
    OutOfRegimeError,
    OutageQuery,
    SwiptSystem,
    asymptotic_capacity_sr,
    asymptotic_outage,
    capacity_rd_meijer,
    capacity_sr_meijer,
    derive_snr_scales,
    ergodic_capacity_rd,
    ergodic_capacity_sr,
    outage_probability,
    outage_probability_quadrature,
)
from .montecarlo import McEstimate, simulate_metrics
from .sweepcfg import CSV_HEADER, SYSTEM_FIELDS, SweepSpec, fmt, resolve_point


def _row(var: str, value: float, sys: SwiptSystem, mode: str, metric: str, estimate, seed: int) -> list[str]:
    """One CSV row; an McEstimate fills the uncertainty columns, a float leaves them empty."""
    head = [var, fmt(value), fmt(sys.theta), str(sys.fading_m), mode, metric]
    if isinstance(estimate, McEstimate):
        return head + [fmt(estimate.mean), fmt(estimate.stderr), fmt(estimate.ci95_low),
                       fmt(estimate.ci95_high), str(seed), str(estimate.n)]
    return head + [fmt(estimate) if estimate == estimate else "nan", "", "", "", "", ""]


def _params(sys: SwiptSystem, threshold) -> dict[str, float]:
    scales = derive_snr_scales(sys)
    params = {f"param.{key}": getattr(sys, field) for key, field in SYSTEM_FIELDS.items()}
    params["param.gamma_hat_r"] = scales.gamma_hat_r
    params["param.gamma_hat_d"] = scales.gamma_hat_d
    if threshold is not None:
        params["param.threshold"] = threshold
    return params


def _exact(sys: SwiptSystem, threshold, capacity_sr, capacity_rd, outage, mean_snr: bool) -> dict[str, float]:
    """Closed-form and quadrature metrics; the two modes differ only in the functions passed."""
    scales = derive_snr_scales(sys)
    m, th = sys.fading_m, sys.theta
    c_sr = capacity_sr(scales.gamma_hat_r, m)
    c_rd = capacity_rd(scales.gamma_hat_d, m, th)
    metrics = {"capacity_sr": c_sr, "capacity_rd": c_rd, "capacity_min": min(c_sr, c_rd)}
    if mean_snr:
        metrics["mean_snr_d"] = scales.gamma_hat_d * mean_snr_factor(m, th)
    if threshold is not None:
        metrics["outage"] = outage(sys, OutageQuery(threshold))
    return metrics


def _asymptotic(spec: SweepSpec, sys: SwiptSystem, threshold) -> dict[str, float]:
    metrics = {"capacity_sr": asymptotic_capacity_sr(derive_snr_scales(sys).gamma_hat_r, sys.fading_m)}
    if threshold is not None:
        try:
            metrics["outage"] = asymptotic_outage(sys, OutageQuery(threshold))
        except OutOfRegimeError:
            metrics["outage"] = math.nan
    return metrics


def _monte_carlo(spec: SweepSpec, sys: SwiptSystem, threshold) -> dict[str, McEstimate]:
    est = simulate_metrics(sys, OutageQuery(threshold if threshold is not None else 1.0), spec.mc)
    metrics = {"capacity_sr": est["cap_sr"], "capacity_rd": est["cap_rd"], "capacity_min": est["cap_min"]}
    if threshold is not None:
        metrics["outage"] = est["outage"]
    metrics["mean_snr_d"] = est["mean_snr_d"]
    return metrics


# Mode -> route(spec, system, threshold) giving the mode's ordered
# {metric: estimate}.  The lambdas look the metric functions up in this
# module when called, so a wrapper set on the module attribute sees the call.
ROUTES = {
    "closed_form": lambda spec, sys, threshold: _exact(
        sys, threshold, capacity_sr_meijer, capacity_rd_meijer, outage_probability,
        mean_snr=True),
    "quadrature": lambda spec, sys, threshold: _exact(
        sys, threshold, ergodic_capacity_sr, ergodic_capacity_rd, outage_probability_quadrature,
        mean_snr=False),
    "monte_carlo": _monte_carlo,
    "asymptotic": _asymptotic,
}


def run_sweep(spec: SweepSpec) -> list[list[str]]:
    """All CSV rows (without header) for a sweep, in the canonical order."""
    rows: list[list[str]] = []
    for value in spec.grid:
        thetas = (value,) if spec.variable == "theta" else spec.thetas
        ms = (int(value),) if spec.variable == "m" else spec.ms
        for th in thetas:
            for m in ms:
                sys, threshold = resolve_point(spec, value, th, m)
                blocks = [("params", _params(sys, threshold))]
                for mode in spec.modes:
                    try:
                        blocks.append((mode, ROUTES[mode](spec, sys, threshold)))
                    except QuadratureError as exc:
                        raise QuadratureError(
                            f"{mode} at {spec.variable} = {fmt(value)}, theta = {fmt(th)}, "
                            f"m = {m}: {exc}") from None
                rows.extend(_row(spec.variable, value, sys, mode, metric, est, spec.mc.seed)
                            for mode, metrics in blocks for metric, est in metrics.items())
    return rows


def write_csv(path: str, rows: list[list[str]]) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def gnuplot_sidecar(csv_path: str, spec: SweepSpec) -> str:
    """A plot script keyed to the CSV: value on x, estimates per mode on y."""
    base = os.path.basename(csv_path)
    lines = [
        "set datafile separator ','",
        f"set xlabel '{spec.variable}'",
        "set ylabel 'estimate'",
        "set key outside",
        f"set title '{spec.name}'",
        "plot \\",
    ]
    plots = []
    for mode in spec.modes:
        metric = "outage" if spec.threshold is not None else "capacity_min"
        if mode == "asymptotic" and spec.threshold is None:
            metric = "capacity_sr"
        plots.append(
            f"  '< grep \",{mode},{metric},\" {base}' using 2:7 with linespoints "
            f"title '{mode} {metric}'"
        )
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"
