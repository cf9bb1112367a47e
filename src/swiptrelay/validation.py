"""Cross-validation harness: closed forms vs quadrature vs Monte Carlo.

Runs a matrix of (m, theta) cells and checks, per cell:

* sup-norm of |closed CDF - quadrature CDF| on a log grid of thresholds;
* the empirical CDF of end-to-end SNRs, drawn exactly by the order-statistic
  sampler ``sample_fgm_powers``, against the closed CDF inside the 99%
  Dvoretzky-Kiefer-Wolfowitz band;
* hop capacities, quadrature vs sample means, within 3 standard errors;
* outage, closed composition vs a seeded indicator simulation under the
  same joint law, within 3 binomial standard errors;
* the convention adjudication of the two ambiguous closed forms.

``inject_coefficient_error`` perturbs the closed CDF by a relative 1e-3 and
must make the harness fail; it exists as a negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .copula import fgm_copula
from .fading import NakagamiPower
from .montecarlo import McConfig, batch_stream, sample_fgm_powers, simulate_outage_survival_law
from .product_dist import closed_form_model, product_cdf_general, snr_cdf_closed
from .specfun import NumericalGuardError
from .swipt_metrics import (
    BASELINE,
    OutageQuery,
    adjudicate_closed_forms,
    derive_snr_scales,
    ergodic_capacity_rd,
    ergodic_capacity_sr,
    outage_probability,
    outage_probability_quadrature,
)
from .sweepcfg import ConfigError, fmt

SUPNORM_TOL = 1e-6
QUAD_OUTAGE_TOL = 1e-9
DKW_CONFIDENCE = 0.99
OUTAGE_THRESHOLD = 1.0  # linear SNR threshold of the outage checks

@dataclass(frozen=True)
class CheckResult:
    cell: str
    name: str
    value: float
    bound: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cell} {self.name}: {self.value:.6g} (bound {self.bound:.6g})"


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, cell: str, name: str, value: float, bound: float, ok=None) -> None:
        passed = (abs(value) <= bound) if ok is None else bool(ok)
        self.checks.append(CheckResult(cell, name, float(value), float(bound), passed))

    def csv_rows(self) -> list[list[str]]:
        rows = []
        for c in self.checks:
            rows.append([
                "validation", "0", "", "", "check", f"{c.cell}/{c.name}",
                fmt(c.value), "", "", fmt(c.bound), "", "",
            ])
        return rows


def _threshold_grid(gamma_hat_d: float, count: int) -> np.ndarray:
    return np.geomspace(1e-3 * gamma_hat_d, 1e2 * gamma_hat_d, count)


def dkw_epsilon(n: int) -> float:
    """Half-width of the DKW band for n samples at ``DKW_CONFIDENCE``."""
    return math.sqrt(math.log(2.0 / (1.0 - DKW_CONFIDENCE)) / (2.0 * n))


def run_validation(
    ms=(1, 2, 3),
    thetas=(-1.0, -0.5, 0.0, 0.5, 1.0),
    samples: int = 1_000_000,
    seed: int = McConfig.seed,
    grid_points: int = 60,
    inject_coefficient_error: bool = False,
) -> ValidationReport:
    try:
        cfg = McConfig(samples=samples, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if grid_points < 1:
        raise ConfigError(f"grid_points must be >= 1, got {grid_points}")
    report = ValidationReport()
    err_factor = 1.0 + 1e-3 if inject_coefficient_error else 1.0

    try:
        for m in ms:
            for theta in thetas:
                cell = f"m={m},theta={fmt(theta)}"
                sys = replace(BASELINE, fading_m=m, theta=theta)
                scales = derive_snr_scales(sys)
                cop = fgm_copula(theta)
                model = closed_form_model(scales.gamma_hat_d, m, cop)
                grid = _threshold_grid(scales.gamma_hat_d, grid_points)

                closed = np.array([err_factor * snr_cdf_closed(model, y) for y in grid])
                # One vector quadrature for the grid and, last, the outage threshold.
                quad_cdf = product_cdf_general(model, np.append(grid, OUTAGE_THRESHOLD))
                report.add(cell, "cdf_supnorm_closed_vs_quadrature",
                           float(np.max(np.abs(closed - quad_cdf[:-1]))), SUPNORM_TOL)

                # One seeded exact draw from the order-statistic sampler, reused
                # by every stochastic check of the cell.  It shares no code with
                # the Bessel closed form or the quadrature it checks, and it
                # reads the first sub-stream the outage-law simulation below
                # never reads.
                marg = NakagamiPower(float(m), 1.0)
                g1, g2 = sample_fgm_powers(cop, marg, batch_stream(seed, cfg.n_batches), samples)
                snr = scales.gamma_hat_d * g1 * g2

                # Capacities: quadrature vs the sample means at 3 standard
                # errors, taken before snr is sorted in place for the DKW check.
                capacity_units = []
                for name, hop_snr, analytic in (
                    ("capacity_sr", scales.gamma_hat_r * g1,
                     ergodic_capacity_sr(scales.gamma_hat_r, m)),
                    ("capacity_rd", snr, ergodic_capacity_rd(scales.gamma_hat_d, m, theta)),
                ):
                    cap = 0.5 * np.log2(1.0 + hop_snr)
                    mean = float(cap.mean())
                    stderr = float(cap.std(ddof=1)) / math.sqrt(samples)
                    capacity_units.append((name, (analytic - mean) / stderr))

                snr.sort()
                emp = np.searchsorted(snr, grid, side="right") / samples
                gap = float(np.max(np.abs(emp - closed)))
                report.add(cell, "cdf_dkw_gap_minus_band", gap - dkw_epsilon(samples),
                           0.0, ok=gap <= dkw_epsilon(samples))
                for name, units in capacity_units:
                    report.add(cell, f"{name}_quadrature_vs_mc_stderr_units", units, 3.0)

                q = OutageQuery(OUTAGE_THRESHOLD)
                p_closed = err_factor * outage_probability(sys, q)
                p_quad = outage_probability_quadrature(sys, q)
                report.add(cell, "outage_closed_vs_quadrature",
                           p_closed - p_quad, QUAD_OUTAGE_TOL)
                mc = simulate_outage_survival_law(sys, q, cfg, quad_cdf[-1])
                stderr = max(mc.stderr, 1e-12)
                report.add(cell, "outage_closed_vs_mc_stderr_units",
                           (p_closed - mc.mean) / stderr, 3.0)

        # Convention adjudication of the two ambiguous closed forms, reported
        # once at the baseline scales.
        scales = derive_snr_scales(BASELINE)
        for m in ms:
            cell = f"adjudication,m={m}"
            adj = adjudicate_closed_forms(scales.gamma_hat_r, scales.gamma_hat_d, m, 0.5)
            report.add(cell, "sr_upper_param_is_1_minus_m", adj["sr_match_abs_error"],
                       1e-9, ok=adj["sr_matching_variant"] == "1-m"
                       and adj["sr_match_abs_error"] < 1e-9)
            report.add(cell, "rd_prefactor_has_no_pi", adj["rd_match_abs_error"],
                       1e-9, ok=adj["rd_matching_variant"] == "prefactor-times-bracket-no-pi"
                       and adj["rd_match_abs_error"] < 1e-9)
    except NumericalGuardError as exc:
        raise type(exc)(f"validate cell {cell}: {exc}") from None
    return report
