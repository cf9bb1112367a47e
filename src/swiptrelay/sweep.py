"""Sweep execution: turn a SweepSpec into deterministic CSV rows.

Row order is fixed (grid value, theta, m, mode, metric) and floats are
printed at 12 significant digits, so a rerun with the same spec and seed
reproduces the file byte for byte.
"""

from __future__ import annotations

import os
import tempfile

from .product_dist import mean_snr_factor
from .specfun import NumericalGuardError
from .swipt_metrics import (
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


def _queries(points) -> list:
    """Each point's outage query; None where it has no threshold (a sweep has
    a threshold at every point or at none)."""
    return [None if threshold is None else OutageQuery(threshold) for _, _, threshold in points]


def _exact(points, capacity_sr, capacity_rd, outage, mean_snr: bool):
    """Closed-form or quadrature metrics of the points, in order; the two modes
    differ only in the functions passed.  Each is one call over all the
    points: the hop capacities take the SNR scale as a column like m and
    theta, and the outage takes each system with its own query."""
    systems, queries = [sys for _, sys, _ in points], _queries(points)
    scales = [derive_snr_scales(sys) for sys in systems]
    ms = [sys.fading_m for sys in systems]
    c_srs = capacity_sr([sc.gamma_hat_r for sc in scales], ms).tolist()
    c_rds = capacity_rd([sc.gamma_hat_d for sc in scales], ms, [sys.theta for sys in systems]).tolist()
    outages = queries if queries[0] is None else outage(systems, queries)
    for sys, sc, c_sr, c_rd, p_out in zip(systems, scales, c_srs, c_rds, outages):
        metrics = {"capacity_sr": c_sr, "capacity_rd": c_rd, "capacity_min": min(c_sr, c_rd)}
        if mean_snr:
            metrics["mean_snr_d"] = sc.gamma_hat_d * mean_snr_factor(sys.fading_m, sys.theta)
        if p_out is not None:
            metrics["outage"] = p_out
        yield metrics


def _asymptotic(spec: SweepSpec, points):
    """High-SNR metrics of the points, in order, from one call per metric; the
    outage is nan at each point whose relay CDF leaves the high-SNR regime."""
    systems, queries = [sys for _, sys, _ in points], _queries(points)
    c_srs = asymptotic_capacity_sr([derive_snr_scales(sys).gamma_hat_r for sys in systems],
                                   [sys.fading_m for sys in systems]).tolist()
    outages = queries if queries[0] is None else asymptotic_outage(systems, queries)
    for c_sr, p_out in zip(c_srs, outages):
        yield {"capacity_sr": c_sr} if p_out is None else {"capacity_sr": c_sr, "outage": p_out}


_MC_METRICS = {"cap_sr": "capacity_sr", "cap_rd": "capacity_rd", "cap_min": "capacity_min",
               "outage": "outage", "mean_snr_d": "mean_snr_d"}


def _monte_carlo(spec: SweepSpec, points):
    """monte_carlo metrics of the points, in order, from one ``simulate_metrics`` call."""
    for e in simulate_metrics([sys for _, sys, _ in points], _queries(points), spec.mc):
        yield {_MC_METRICS[key]: estimate for key, estimate in e.items()}


# Mode -> route(spec, points) yielding each (value, system, threshold)
# point's ordered {metric: estimate}, in order.  Every route computes all
# its points before it yields the first: one call per metric function, or
# one simulate_metrics call.  So a failed guard surfaces at the sweep's first
# point, and its own message names the failing column.  The lambdas look the
# metric functions up in this module when the route starts, so a wrapper set
# on the module attribute sees the calls.
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
