"""Sweep execution: turn a SweepSpec into deterministic CSV rows.

Row order is fixed (grid value, theta, m, mode, metric) and floats are
printed at 12 significant digits, so a rerun with the same spec and seed
reproduces the file byte for byte.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile

from .product_dist import mean_snr_factor
from .specfun import NumericalGuardError
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


def _shared(points, key, compute):
    """Each point's value, in order, from one ``compute(key, systems)`` call per
    key: made at the key's first point, with the systems of all its points in
    order, and returning one value per system."""
    members: dict = {}
    for i, (_, sys, threshold) in enumerate(points):
        members.setdefault(key(sys, threshold), []).append(i)
    values: dict = {}
    for i, (_, sys, threshold) in enumerate(points):
        k = key(sys, threshold)
        if k not in values:
            values[k] = dict(zip(members[k], compute(k, [points[j][1] for j in members[k]])))
        yield values[k].pop(i)


def _hop(points, capacity, scale: str, column):
    """Each point's hop capacity: one ``capacity(value, *columns)`` call per value of its
    SNR ``scale``, over the distinct ``column(sys)`` of its points in first-seen order."""
    def compute(key, systems):
        distinct = list(dict.fromkeys(map(column, systems)))
        values = dict(zip(distinct, capacity(key, *map(list, zip(*distinct))).tolist()))
        return [values[column(sys)] for sys in systems]
    return _shared(points, lambda sys, threshold: getattr(derive_snr_scales(sys), scale), compute)


def _outages(outage, key: tuple, systems) -> list:
    """Each system's outage at the key's last entry, the threshold (None: no outage)."""
    if key[-1] is None:
        return [None] * len(systems)
    return outage(systems, OutageQuery(key[-1]))


def _exact(points, capacity_sr, capacity_rd, outage, mean_snr: bool):
    """Closed-form or quadrature metrics of the points, in order; the two modes
    differ only in the functions passed.  Each hop capacity is one call per SNR
    scale over the m (SR) or the (m, theta) pairs (RD) of its points, and the
    outage one call per (gamma_hat_d, m, threshold) over their thetas."""
    c_srs = _hop(points, capacity_sr, "gamma_hat_r", lambda sys: (sys.fading_m,))
    c_rds = _hop(points, capacity_rd, "gamma_hat_d", lambda sys: (sys.fading_m, sys.theta))
    outages = _shared(points, lambda sys, t: (derive_snr_scales(sys).gamma_hat_d, sys.fading_m, t),
                      functools.partial(_outages, outage))
    for (_, sys, threshold), c_sr, c_rd, p_out in zip(points, c_srs, c_rds, outages):
        metrics = {"capacity_sr": c_sr, "capacity_rd": c_rd, "capacity_min": min(c_sr, c_rd)}
        if mean_snr:
            metrics["mean_snr_d"] = (derive_snr_scales(sys).gamma_hat_d
                                     * mean_snr_factor(sys.fading_m, sys.theta))
        if threshold is not None:
            metrics["outage"] = p_out
        yield metrics


def _asymptotic_outages(key: tuple, systems) -> list:
    """High-SNR outage of systems that share the key (gamma_hat_r, gamma_hat_d, m,
    threshold); nan for all where the relay CDF leaves the high-SNR regime."""
    try:
        return _outages(asymptotic_outage, key, systems)
    except OutOfRegimeError:
        return [math.nan] * len(systems)


def _asymptotic(spec: SweepSpec, points):
    """High-SNR metrics of the points, in order; the SR capacity once per
    (gamma_hat_r, m), the outage once per (gamma_hat_r, gamma_hat_d, m,
    threshold), as its regime check takes gamma_hat_r."""
    capacity_sr = functools.cache(asymptotic_capacity_sr)
    outages = _shared(points, lambda sys, t: (derive_snr_scales(sys).gamma_hat_r,
                                              derive_snr_scales(sys).gamma_hat_d, sys.fading_m, t),
                      _asymptotic_outages)
    for (_, sys, threshold), p_out in zip(points, outages):
        metrics = {"capacity_sr": capacity_sr(derive_snr_scales(sys).gamma_hat_r, sys.fading_m)}
        if threshold is not None:
            metrics["outage"] = p_out
        yield metrics


_MC_METRICS = {"cap_sr": "capacity_sr", "cap_rd": "capacity_rd", "cap_min": "capacity_min",
               "outage": "outage", "mean_snr_d": "mean_snr_d"}


def _monte_carlo(spec: SweepSpec, points):
    """monte_carlo metrics of the points, in order, from one ``simulate_metrics`` call."""
    queries = [None if threshold is None else OutageQuery(threshold) for _, _, threshold in points]
    for e in simulate_metrics([sys for _, sys, _ in points], queries, spec.mc):
        yield {_MC_METRICS[key]: estimate for key, estimate in e.items()}


# Mode -> route(spec, points) yielding each (value, system, threshold)
# point's ordered {metric: estimate}, in order.  The routes are generators,
# so a sweep computes point by point; monte_carlo scores every point in one
# simulate_metrics call before its first point.  The lambdas look the metric
# functions up in this module when the route starts, so a wrapper set on the
# module attribute sees the calls.
ROUTES = {
    "closed_form": lambda spec, points: _exact(
        points, capacity_sr_meijer, capacity_rd_meijer, outage_probability, mean_snr=True),
    "quadrature": lambda spec, points: _exact(
        points, ergodic_capacity_sr, ergodic_capacity_rd, outage_probability_quadrature,
        mean_snr=False),
    "monte_carlo": _monte_carlo,
    "asymptotic": _asymptotic,
}


def run_sweep(spec: SweepSpec) -> list[list[str]]:
    """All CSV rows (without header) for a sweep, in the canonical order."""
    points = [(value, *resolve_point(spec, value, th, m))
              for value in spec.grid
              for th in ((value,) if spec.variable == "theta" else spec.thetas)
              for m in ((value,) if spec.variable == "m" else spec.ms)]
    routes = [(mode, ROUTES[mode](spec, points)) for mode in spec.modes]
    rows: list[list[str]] = []
    for value, sys, threshold in points:
        blocks = [("params", _params(sys, threshold))]
        for mode, route in routes:
            try:
                blocks.append((mode, next(route)))
            except NumericalGuardError as exc:
                raise type(exc)(
                    f"{mode} at {spec.variable} = {fmt(value)}, theta = {fmt(sys.theta)}, "
                    f"m = {sys.fading_m}: {exc}") from None
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
