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
from .montecarlo import simulate_metrics
from .sweepcfg import CSV_HEADER, SweepSpec, fmt, resolve_point

_MC_METRIC_NAMES = {
    "cap_sr": "capacity_sr",
    "cap_rd": "capacity_rd",
    "cap_min": "capacity_min",
    "outage": "outage",
    "mean_snr_d": "mean_snr_d",
}


def _param_rows(var: str, value: float, sys: SwiptSystem, threshold) -> list[list[str]]:
    scales = derive_snr_scales(sys)
    params = {
        "param.source_power": sys.source_power,
        "param.noise_power": sys.noise_power,
        "param.rho": sys.ps_factor,
        "param.eh_efficiency": sys.eh_efficiency,
        "param.dist_sr": sys.dist_sr,
        "param.dist_rd": sys.dist_rd,
        "param.pathloss_exp": sys.pathloss_exp,
        "param.gamma_hat_r": scales.gamma_hat_r,
        "param.gamma_hat_d": scales.gamma_hat_d,
    }
    if threshold is not None:
        params["param.threshold"] = threshold
    return [
        [var, fmt(value), fmt(sys.theta), str(sys.fading_m), "params", name, fmt(v), "", "", "", "", ""]
        for name, v in params.items()
    ]


def _det_rows(var, value, sys, mode, metrics: dict) -> list[list[str]]:
    return [
        [var, fmt(value), fmt(sys.theta), str(sys.fading_m), mode, name,
         fmt(est) if est == est else "nan", "", "", "", "", ""]
        for name, est in metrics.items()
    ]


def _mode_rows(spec: SweepSpec, var, value, sys, threshold, mode) -> list[list[str]]:
    scales = derive_snr_scales(sys)
    m, th = sys.fading_m, sys.theta
    if mode == "closed_form":
        c_sr = capacity_sr_meijer(scales.gamma_hat_r, m)
        c_rd = capacity_rd_meijer(scales.gamma_hat_d, m, th)
        metrics = {
            "capacity_sr": c_sr,
            "capacity_rd": c_rd,
            "capacity_min": min(c_sr, c_rd),
            "mean_snr_d": scales.gamma_hat_d * mean_snr_factor(m, th),
        }
        if threshold is not None:
            metrics["outage"] = outage_probability(sys, OutageQuery(threshold))
        return _det_rows(var, value, sys, mode, metrics)
    if mode == "quadrature":
        c_sr = ergodic_capacity_sr(scales.gamma_hat_r, m)
        c_rd = ergodic_capacity_rd(scales.gamma_hat_d, m, th)
        metrics = {
            "capacity_sr": c_sr,
            "capacity_rd": c_rd,
            "capacity_min": min(c_sr, c_rd),
        }
        if threshold is not None:
            metrics["outage"] = outage_probability_quadrature(sys, OutageQuery(threshold))
        return _det_rows(var, value, sys, mode, metrics)
    if mode == "asymptotic":
        metrics = {"capacity_sr": asymptotic_capacity_sr(scales.gamma_hat_r, m)}
        if threshold is not None:
            try:
                metrics["outage"] = asymptotic_outage(sys, OutageQuery(threshold))
            except OutOfRegimeError:
                metrics["outage"] = math.nan
        return _det_rows(var, value, sys, mode, metrics)
    if mode == "monte_carlo":
        q = OutageQuery(threshold if threshold is not None else 1.0)
        est = simulate_metrics(sys, q, spec.mc)
        rows = []
        for key, name in _MC_METRIC_NAMES.items():
            if name == "outage" and threshold is None:
                continue
            e = est[key]
            rows.append([
                var, fmt(value), fmt(th), str(m), mode, name,
                fmt(e.mean), fmt(e.stderr), fmt(e.ci95_low), fmt(e.ci95_high),
                str(spec.mc.seed), str(e.n),
            ])
        return rows
    raise ValueError(f"unknown mode {mode!r}")


def run_sweep(spec: SweepSpec) -> list[list[str]]:
    """All CSV rows (without header) for a sweep, in the canonical order."""
    rows: list[list[str]] = []
    for value in spec.grid:
        thetas = (value,) if spec.variable == "theta" else spec.thetas
        ms = (int(value),) if spec.variable == "m" else spec.ms
        for th in thetas:
            for m in ms:
                sys, threshold = resolve_point(spec, value, th, m)
                rows.extend(_param_rows(spec.variable, value, sys, threshold))
                for mode in spec.modes:
                    rows.extend(_mode_rows(spec, spec.variable, value, sys, threshold, mode))
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
