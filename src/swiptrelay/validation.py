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

from .fading import NakagamiPower
from .montecarlo import (McConfig, _batch_moments, batch_stream, sample_fgm_powers,
                         simulate_outage_survival_law)
from .product_dist import product_cdf_general, snr_cdf_closed
from .specfun import NumericalGuardError
from .swipt_metrics import (
    BASELINE,
    OutageQuery,
    _outage,
    adjudicate_closed_forms,
    derive_snr_scales,
    ergodic_capacity_rd,
    outage_probability,
    relay_snr_cdf,
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
        passed = bool(abs(value) <= bound if ok is None else ok)
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
    if samples < 2:  # the capacity checks take a sample standard deviation
        raise ConfigError(f"validate needs samples >= 2, got {samples}")
    if not (ms and thetas):
        raise ConfigError("validate needs at least one m and one theta")
    report = ValidationReport()
    err_factor = 1.0 + 1e-3 if inject_coefficient_error else 1.0
    # Every cell has the baseline's SNR scales: m and theta change no link budget.
    scales = derive_snr_scales(BASELINE)
    q = OutageQuery(OUTAGE_THRESHOLD)
    # Per (m, theta) cell: its name, its checks but the outage ones; and the
    # system and quadrature destination CDF at q that the outage checks take.
    cells, systems, destination_cdfs = [], [], []

    try:
        # Convention adjudication of the two ambiguous closed forms for every m,
        # at the baseline scales and theta = 0.5.  Its SR quadratures are the
        # cells' SR capacities (theta does not enter the SR hop).
        cell = f"adjudication,m={','.join(str(m) for m in ms)}"
        adjudications = adjudicate_closed_forms(scales.gamma_hat_r, scales.gamma_hat_d, ms, 0.5)
        # One RD quadrature serves every (m, theta) cell.
        cell = every_cell = f"m={','.join(str(m) for m in ms)},theta={','.join(fmt(t) for t in thetas)}"
        rd_quads = ergodic_capacity_rd(scales.gamma_hat_d, np.reshape(ms, (-1, 1)), thetas)
        # One vector quadrature serves every cell's product CDF: on the grid
        # and, last, at the outage threshold; one closed-form call gives every
        # cell's CDF on the grid.  Axes are m, thresholds and thetas.
        grid = _threshold_grid(scales.gamma_hat_d, grid_points)
        m_axis = np.reshape(ms, (-1, 1, 1))
        all_quad_cdfs = product_cdf_general(scales.gamma_hat_d, m_axis, thetas,
                                            np.append(grid, OUTAGE_THRESHOLD)[:, None])
        all_closed_cdfs = err_factor * snr_cdf_closed(scales.gamma_hat_d, m_axis, thetas, grid[:, None])
        for i, (m, quad_cdfs, closed_cdfs) in enumerate(zip(ms, all_quad_cdfs, all_closed_cdfs)):
            # One seeded exact draw per m from the order-statistic sampler:
            # every theta cell reuses its base Gammas and uniforms, and each
            # cell's pair is what a draw for that theta alone gives.  It
            # shares no code with the Bessel closed form or the quadrature it
            # checks, and it reads the first sub-stream the outage-law
            # simulation below never reads.
            draws = sample_fgm_powers(thetas, NakagamiPower(float(m), 1.0),
                                      batch_stream(seed, cfg.n_batches), samples)
            sr_moments = None
            for j, (theta, (g1, g2)) in enumerate(zip(thetas, draws)):
                cell = f"m={m},theta={fmt(theta)}"
                sys = replace(BASELINE, fading_m=m, theta=theta)
                quad_cdf = quad_cdfs[:, j]
                closed = closed_cdfs[:, j]
                checks = [("cdf_supnorm_closed_vs_quadrature",
                           float(np.max(np.abs(closed - quad_cdf[:-1]))), SUPNORM_TOL)]

                # Capacities: quadrature vs the sample means, taken before snr
                # is sorted in place for the DKW check.  g1 is the same array
                # for every theta, so the SR sample moments are taken once per m.
                if sr_moments is None:
                    sr_moments = _batch_moments(0.5 * np.log2(1.0 + scales.gamma_hat_r * g1))
                snr = scales.gamma_hat_d * g1 * g2
                rd_moments = _batch_moments(0.5 * np.log2(1.0 + snr))

                snr.sort()
                emp = np.searchsorted(snr, grid, side="right") / samples
                gap = float(np.max(np.abs(emp - closed)))
                checks.append(("cdf_dkw_gap_minus_band", gap - dkw_epsilon(samples), 0.0,
                               gap <= dkw_epsilon(samples)))
                for name, analytic, (n, mean, m2) in (
                        ("capacity_sr", adjudications[i]["sr_quadrature"], sr_moments),
                        ("capacity_rd", rd_quads[i, j], rd_moments)):
                    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(samples)
                    checks.append((f"{name}_quadrature_vs_mc_stderr_units",
                                   (analytic - mean) / stderr, 3.0))
                # Release the draw before the next theta's (or m's) is made.
                del g1, g2, snr
                cells.append((cell, checks))
                systems.append(sys)
                destination_cdfs.append(quad_cdf[-1])

        # One closed-form outage call serves every cell, each with the bits of
        # a call for it alone.
        cell = every_cell
        p_closeds = [err_factor * p for p in outage_probability(systems, q)]
        for (cell, checks), sys, u_d, p_closed in zip(cells, systems, destination_cdfs, p_closeds):
            # The quadrature outage composes the grid call's CDF at q.
            p_quad = _outage(sys, q, relay_snr_cdf, lambda *args: np.full((1, 1), 1.0 - u_d))
            checks.append(("outage_closed_vs_quadrature", p_closed - p_quad, QUAD_OUTAGE_TOL))
    except NumericalGuardError as exc:
        raise type(exc)(f"validate cell {cell}: {exc}") from None

    # The outage-law simulation scores every cell on one draw per batch.
    mc = simulate_outage_survival_law(systems, [q] * len(systems), cfg, destination_cdfs)
    for (cell, checks), p_closed, est in zip(cells, p_closeds, mc):
        for check in checks:
            report.add(cell, *check)
        report.add(cell, "outage_closed_vs_mc_stderr_units",
                   (p_closed - est.mean) / max(est.stderr, 1e-12), 3.0)
    for cell, adj in zip((f"adjudication,m={m}" for m in ms), adjudications):
        report.add(cell, "sr_upper_param_is_1_minus_m", adj["sr_match_abs_error"],
                   1e-9, ok=adj["sr_matching_variant"] == "1-m"
                   and adj["sr_match_abs_error"] < 1e-9)
        report.add(cell, "rd_prefactor_has_no_pi", adj["rd_match_abs_error"],
                   1e-9, ok=adj["rd_matching_variant"] == "prefactor-times-bracket-no-pi"
                   and adj["rd_match_abs_error"] < 1e-9)
    return report
