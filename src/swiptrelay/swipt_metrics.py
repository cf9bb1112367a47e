"""Power-splitting SWIPT relay model and its performance metrics.

The quadrature of each defining integral is the authoritative value.  The
Bessel/Meijer-G closed forms are evaluated alongside; two printed closed
forms carry ambiguities, so ``adjudicate_closed_forms`` reports which
reading matches quadrature (see the convention notes in each docstring).

One array convention runs through the module and ``product_dist``: the
SNR scale, m and theta are broadcast axes; scalars give a float, arrays an
array of the broadcast shape.  The hop capacities work at unit scale, so
the scale is one more axis: (gamma_hat_r, m) for SR, (gamma_hat_d, m,
theta) for RD.  One quadrature or contour serves all columns, its nodes
evaluating the unit-scale terms once (the SR Gamma weight per m, the unit
density f_1 in one ``snr_pdf_closed(1.0, m, thetas, x)`` call per round
for every m and theta, the contours' log-gammas).  A scale enters only its
column.  In a quadrature it enters as ln(1 + gamma_hat x), divided by
ln(1 + gamma_hat) so that the panels, chosen on the largest error over the
columns, give each relative accuracy; more than one column moves a value
at the rounding level.  In a contour it enters as -s ln x, and each column
takes its own trapezoidal steps, so it keeps the bits of a call for it
alone.  Every guard names its column.  The outage functions take one
system or any systems, and one destination-survival call, on
``product_dist``'s (snr_scale, m, theta, y), serves them all (``_outage``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaincinv, gammainccinv, gammaln, psi
from scipy.special import loggamma as _loggamma

from . import specfun
from .copula import copula_cdf, fgm_copula
from .fading import NakagamiPower, power_cdf
from .product_dist import (closed_form_m, fgm_mellin_sum, fgm_thetas, product_cdf_general,
                           snr_pdf_closed, snr_survival_closed)

_LN2 = math.log(2.0)


class OutOfRegimeError(ValueError):
    """High-SNR asymptotic requested where its premise fails."""


@dataclass(frozen=True)
class SwiptSystem:
    """Physical parameters of the dual-hop PSR link."""

    source_power: float        # P_S, watts
    noise_power: float         # N, watts
    ps_factor: float           # rho in (0, 1): share harvested
    eh_efficiency: float       # kappa in (0, 1]
    dist_sr: float             # meters
    dist_rd: float             # meters
    pathloss_exp: float        # alpha
    fading_m: int = 1
    theta: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.source_power <= 0 or self.noise_power <= 0:
            raise ValueError("powers must be strictly positive")
        if not 0.0 < self.ps_factor < 1.0:
            raise ValueError(f"ps_factor must lie in (0, 1), got {self.ps_factor}")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError(f"eh_efficiency must lie in (0, 1], got {self.eh_efficiency}")
        if self.dist_sr <= 0 or self.dist_rd <= 0:
            raise ValueError("distances must be strictly positive")
        if self.fading_m < 1 or self.fading_m != int(self.fading_m):
            raise ValueError(f"fading_m must be an integer >= 1, got {self.fading_m}")
        object.__setattr__(self, "fading_m", int(self.fading_m))  # a whole float such as 2.0 is kept as 2
        fgm_copula(self.theta)  # the copula owns the theta range


# The reference operating point: config files start from it, ``validate``
# runs its (m, theta) matrix on it and the tests build their cases from it.
BASELINE = SwiptSystem(
    source_power=10.0,
    noise_power=1e-2,
    ps_factor=0.3,
    eh_efficiency=0.7,
    dist_sr=2.0,
    dist_rd=2.0,
    pathloss_exp=2.5,
)


@dataclass(frozen=True)
class DerivedSnrScales:
    """Deterministic SNR scale factors at relay and destination."""

    gamma_hat_r: float
    gamma_hat_d: float


@dataclass(frozen=True)
class OutageQuery:
    """Linear SNR threshold."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and non-negative, got {self.threshold}")


def derive_snr_scales(sys: SwiptSystem) -> DerivedSnrScales:
    """gamma_hat_r = (1-rho) P_S / (d_sr^alpha N); gamma_hat_d adds kappa*rho and both path losses."""
    pl_sr = sys.dist_sr**sys.pathloss_exp
    pl_rd = sys.dist_rd**sys.pathloss_exp
    ghr = (1.0 - sys.ps_factor) * sys.source_power / (pl_sr * sys.noise_power)
    ghd = sys.eh_efficiency * sys.ps_factor * sys.source_power / (pl_sr * pl_rd * sys.noise_power)
    return DerivedSnrScales(gamma_hat_r=ghr, gamma_hat_d=ghd)


def relay_snr_cdf(gamma_hat_r: float, m: int, gamma: float) -> float:
    """CDF of the relay SNR: the Nakagami-m power law with mean gamma_hat_r."""
    return power_cdf(NakagamiPower(m, gamma_hat_r), gamma)


def _distinct(values) -> tuple[list, list[int]]:
    """The distinct values in first-seen order, and the index of each value among them."""
    first: dict = {}
    index = [first.setdefault(v, len(first)) for v in values]
    return list(first), index


def _unit_scale(gamma_hat, name: str, *axes) -> tuple[np.ndarray, ...]:
    """The broadcast columns (scale, *axes) of a hop route, each scale checked
    to be finite and positive (nan fails)."""
    columns = np.broadcast_arrays(np.asarray(gamma_hat, dtype=float), *axes)
    for g in columns[0].flat:
        if not 0.0 < g < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {g:.6g}")
    return columns


def _in_bits(val) -> float | np.ndarray:
    """Nats of E ln(1 + gamma) as bits per channel use with the half-duplex 1/2;
    a float for scalar columns."""
    val = val / (2.0 * _LN2)
    return float(val) if np.ndim(val) == 0 else val


def ergodic_capacity_sr(gamma_hat_r, m) -> float | np.ndarray:
    """SR-hop ergodic capacity (bits/channel use, incl. the half-duplex 1/2).

    Authoritative route: adaptive quadrature of E[ln(1 + gamma_hat_r g)]/(2 ln 2)
    with g ~ Gamma(m, 1/m), one quadrature at unit scale for every
    (gamma_hat_r, m) column (module docstring).
    """
    ghrs, ms = _unit_scale(gamma_hat_r, "gamma_hat_r", m)
    distinct, column = _distinct(ms.flat)
    m_values = np.array([NakagamiPower(mj).m for mj in distinct])  # the marginal owns the m range
    s = (ghrs / ms).ravel()
    norm = np.reshape([math.log1p(g) for g in ghrs.flat], ghrs.shape)  # by libm, not numpy's SIMD log

    def integrand(v: np.ndarray) -> np.ndarray:
        # Over v = ln u, u = m g ~ Gamma(m, 1), where the kink of ln(1 + s u) near
        # u = 1/s is as smooth as the Gamma mass near u = m; in logs, so u ** m
        # and Gamma(m) cannot overflow at large m.  The weight once per node and m.
        u = np.exp(v)
        weight = np.exp(np.multiply.outer(v, m_values) - u[:, None] - gammaln(m_values))
        return (np.log1p(np.multiply.outer(u, s)) / norm.ravel() * weight[:, column]).reshape(
            len(v), *ms.shape)

    # Between the gains' 1e-17 quantiles, split at the modes v = ln m and at
    # v = ln m +- 2^k, k = -2 .. 5, which fit the panels to the Gamma mass of
    # width about 1 / sqrt(m) and its tails; the mass left out costs at most
    # 1e-17 of each column.
    offsets = [0.0, *(sign * 2.0 ** k for k in range(-2, 6) for sign in (-1.0, 1.0))]
    val, err = specfun.gauss_kronrod(integrand, math.log(gammaincinv(m_values, 1e-17).min()),
                                     math.log(gammainccinv(m_values, 1e-17).max()),
                                     epsabs=0.0, epsrel=1e-11, limit=300,
                                     points=[math.log(mj) + d for mj in distinct for d in offsets])
    for g, mj, v, e in zip(ghrs.flat, ms.flat, np.ravel(val), np.ravel(err)):
        if not e <= 1e-8 * v:
            raise specfun.QuadratureError(
                f"SR capacity quadrature error {e:.2e} at m = {mj}, gamma_hat_r = {g:.6g}")
    return _in_bits(val * norm)


def _ln_reflection(s: np.ndarray) -> np.ndarray:
    """ln of Gamma(1+s) Gamma(-s)^2 / Gamma(1-s), the factor both capacity
    kernels share: by Gamma(1+s) Gamma(-s) = -pi / sin(pi s) and
    Gamma(1-s) = -s Gamma(-s) it is pi / (s sin(pi s)), taken as
    ln(-2 pi i / s) + i pi s - ln(1 - e^(2 i pi s)) so that no term
    overflows up the line (Im s >= 0)."""
    return np.log(-2j * math.pi / s) + 1j * math.pi * s - np.log(1.0 - np.exp(2j * math.pi * s))


def capacity_sr_meijer(gamma_hat_r, m) -> float | np.ndarray:
    """SR capacity G^{1,3}_{3,2}(1 - m, 1, 1; 1, 0 | gamma_hat_r / m) / (2 Gamma(m) ln 2),
    one Mellin-Barnes contour at Re s = -1/2 for every (gamma_hat_r, m) column
    (module docstring).

    The upper parameter a1 = 1 - m matches quadrature; the printed
    a1 = 1 - m/gamma_hat_r is ``adjudicate_closed_forms``' reading.
    """
    ghrs, ms = _unit_scale(gamma_hat_r, "gamma_hat_r", m)
    distinct, column = _distinct(ms.flat)
    m_values = np.array([NakagamiPower(mj).m for mj in distinct])  # the marginal owns the m range
    x, ln_gamma_m = ghrs / ms, gammaln(ms).ravel()

    def ln_kernel(s: np.ndarray) -> np.ndarray:
        return (_ln_reflection(s)[:, None] + _loggamma(m_values - s[:, None])[:, column]
                - ln_gamma_m).reshape(len(s), *ms.shape)

    names = [f"Meijer G (1, 3, 3, 2) at x={v:.6g}, m={mj}" for v, mj in zip(x.flat, ms.flat)]
    ln_x = np.reshape([math.log(v) for v in x.flat], x.shape)
    return _in_bits(specfun.mellin_barnes(ln_kernel, ln_x, names))


def ergodic_capacity_rd(gamma_hat_d, m, theta) -> float | np.ndarray:
    """RD-hop ergodic capacity by quadrature of ln(1 + gamma_hat_d x) against the
    unit-scale product density f_1, one quadrature for every (gamma_hat_d, m,
    theta) column (module docstring)."""
    ghds, ms, thetas = _unit_scale(gamma_hat_d, "gamma_hat_d", m, fgm_thetas(theta))
    norm = np.reshape([math.log1p(g) for g in ghds.flat], ghds.shape)  # by libm, not numpy's SIMD log
    m_flat, theta_flat = ms.ravel().tolist(), thetas.ravel().tolist()
    m_values, m_column = _distinct(m_flat)
    m_values = [closed_form_m(mj) for mj in m_values]  # the density's m rule, checked first
    theta_values, theta_column = _distinct(theta_flat)

    def integrand(s: np.ndarray) -> np.ndarray:
        # x = s^2 smooths the sqrt(x) Bessel arguments; one density call per round
        # gives f_1 at every (m, theta) of the columns.
        x = s * s
        density = snr_pdf_closed(1.0, np.reshape(m_values, (-1, 1)), theta_values, x[:, None, None])
        return (2.0 * s[:, None] * np.log1p(np.multiply.outer(x, ghds.ravel())) / norm.ravel()
                * density[:, m_column, theta_column]).reshape(len(s), *ms.shape)

    # f_1 has its mass at s ~ 1 at every scale, so the panels start at the
    # dyadic s = 2^k, k = -3 .. 5; the interval ends where both hop gains pass
    # their 1e-17 upper quantile.
    hi = max(float(gammainccinv(mj, 1e-17)) / mj for mj in m_values)
    val, err = specfun.gauss_kronrod(integrand, 0.0, hi, epsabs=0.0, epsrel=1e-10, limit=400,
                                     points=2.0 ** np.arange(-3, 6))
    for g, mj, t, v, e in zip(ghds.flat, m_flat, theta_flat, np.ravel(val), np.ravel(err)):
        if not e <= 1e-7 * v:
            raise specfun.QuadratureError(f"RD capacity quadrature error {e:.2e} at theta = {t:.6g}, "
                                          f"m = {mj}, gamma_hat_d = {g:.6g}")
    return _in_bits(val * norm)


def capacity_rd_meijer(gamma_hat_d, m, theta) -> float | np.ndarray:
    """RD capacity via the G^{1,4}_{4,2} closed form, summed as one contour integral.

    The prefactor multiplies the whole bracket.  The printed prefactor has a
    pi in its denominator; the reading without it matches quadrature and is
    the one computed here (the printed reading is this value divided by pi).
    With x = gamma_hat_d / m^2, the bracket weighs G at x by 1 + theta, at
    x/2 by -theta 2^(2-m-k)/k! and at x/4 by theta 2^(2-2m-k-n)/(k! n!); the
    prefactor is 1 / (2 Gamma(m)^2 ln 2).  The terms share one Mellin-Barnes
    kernel, as Gamma(m+k-s) = Gamma(m-s) (m-s)_k and the weights factor in k
    and n: with Q(s) = sum_{k<m} (m-s)_k / (2^k k!) (``fgm_mellin_sum``) and
    u = 2^(1-m+s) Q(s), the 1 + m + m^2 terms are one contour integral at
    s = -1/2 + it,

      C = 1 / (2 pi ln 2) int_0^inf Re[Gamma(1+s) Gamma(-s)^2 Gamma(m-s)^2
          / (Gamma(m)^2 Gamma(1-s)) x^-s (1 + theta (1 - u)^2)] dt,

    with 1 / Gamma(m)^2 in the log integrand, so the peak stays in range up
    to m = 100.  No power of gamma_hat_d is formed.  Every (gamma_hat_d, m,
    theta) column shares one contour quadrature (module docstring).
    """
    ghds, ms, thetas = _unit_scale(gamma_hat_d, "gamma_hat_d", m, fgm_thetas(theta))
    # The kernel once per distinct (m, theta) pair, its front once per distinct m.
    pairs, column = _distinct(zip(ms.ravel().tolist(), thetas.flat))
    m_values, m_column = _distinct(mj for mj, _ in pairs)
    m_values = [closed_form_m(mj) for mj in m_values]
    pair_thetas = np.array([t for _, t in pairs])

    def ln_kernel(s: np.ndarray) -> np.ndarray:
        reflection, two_s = _ln_reflection(s), np.exp(_LN2 * s)
        ln_front, u = [], []
        for mj in m_values:
            u.append((1.0 - 2.0 ** (1 - mj) * two_s * fgm_mellin_sum(mj, s)) ** 2)
            ln_front.append(reflection + 2.0 * _loggamma(mj - s) - 2.0 * float(gammaln(mj)))
        # For theta < 0 the weight vanishes at u = 1 +- 1/sqrt(-theta); its log is -inf there.
        with np.errstate(divide="ignore"):
            ln_weight = np.log(1.0 + pair_thetas * np.stack(u, axis=1)[:, m_column])
        return (np.stack(ln_front, axis=1)[:, m_column] + ln_weight)[:, column].reshape(
            len(s), *ms.shape)

    names = [f"RD capacity contour (m={mj}, theta={t:.6g}) at x={g / (mj * mj):.6g}"
             for g, mj, t in zip(ghds.flat, ms.ravel().tolist(), thetas.flat)]
    ln_x = np.reshape([math.log(g / (mj * mj)) for g, mj in zip(ghds.flat, ms.flat)], ms.shape)
    return _in_bits(specfun.mellin_barnes(ln_kernel, ln_x, names))


def _outage(sys, q, relay_cdf, destination_survival):
    """P(min(gamma_r, gamma_d) <= t) = 1 - C(S_r(t), S_d(t)): the FGM survival
    copula coincides with the FGM copula itself.

    ``sys`` is one system (a float) or a sequence (a list), ``q`` one query
    for all or one per system.  One ``destination_survival(gamma_hat_d, m,
    theta, t)`` call serves all systems: their distinct (gamma_hat_d, m, t)
    as rows (three (p, 1) columns) and their distinct thetas as columns, so
    each system gets the bits, and its guards name the threshold, of a call
    for it alone.
    """
    systems = [sys] if isinstance(sys, SwiptSystem) else list(sys)
    thresholds = [c.threshold for c in ([q] * len(systems) if isinstance(q, OutageQuery) else q)]
    scales = [derive_snr_scales(s) for s in systems]
    surv_r = [1.0 - relay_cdf(sc.gamma_hat_r, s.fading_m, t)
              for s, sc, t in zip(systems, scales, thresholds)]
    rows, row = _distinct((sc.gamma_hat_d, s.fading_m, t) for s, sc, t in zip(systems, scales, thresholds))
    thetas, theta_column = _distinct(s.theta for s in systems)
    ghds, ms, ts = (np.array(axis)[:, None] for axis in zip(*rows))
    values = destination_survival(ghds, ms, thetas, ts)
    outages = [1.0 - copula_cdf(fgm_copula(s.theta), r, values[a, b])
               for s, r, a, b in zip(systems, surv_r, row, theta_column)]
    return outages[0] if isinstance(sys, SwiptSystem) else outages


def outage_probability(sys, q):
    """P(min(gamma_r, gamma_d) <= threshold) via the FGM survival-copula composition
    (one system, or a sequence with one query or one per system: ``_outage``)."""
    return _outage(sys, q, relay_snr_cdf, snr_survival_closed)


def outage_probability_quadrature(sys, q):
    """Same composition with the destination CDF from the general product integral."""
    return _outage(sys, q, relay_snr_cdf, lambda *args: 1.0 - product_cdf_general(*args))


def asymptotic_capacity_sr(gamma_hat_r, m) -> float | np.ndarray:
    """High-SNR SR capacity: (psi(m) + ln(gamma_hat_r / m)) / (2 ln 2), broadcast
    over gamma_hat_r and m.

    This is E[ln gamma]/(2 ln 2), the reading validated by quadrature; the
    printed form with a 1/Gamma(m) prefactor does not match and is not
    implemented.  The log is ``math.log`` per element, so no digit depends on
    numpy's SIMD log.
    """
    ghrs, ms = _unit_scale(gamma_hat_r, "gamma_hat_r", m)
    for mj in set(ms.flat):
        NakagamiPower(mj)  # the marginal owns the m range
    return _in_bits(psi(ms) + np.reshape([math.log(g / mj) for g, mj in zip(ghrs.flat, ms.flat)],
                                         ms.shape))


def _relay_cdf_high_snr(gamma_hat_r: float, m: int, t: float) -> float:
    """m^m t^m / (gamma_hat_r^m Gamma(m+1)); nan above 1, where the high-SNR premise fails."""
    try:
        f_r = (m * t / gamma_hat_r) ** m / math.exp(gammaln(m + 1))
    except OverflowError:
        f_r = math.inf
    return f_r if f_r <= 1.0 else math.nan


def asymptotic_outage(sys, q):
    """High-SNR outage: the outage composition with the polynomial relay CDF,
    refused (not clamped) where that CDF exceeds 1: one system raises
    ``OutOfRegimeError``, a sequence gets nan for each such system."""
    outage = _outage(sys, q, _relay_cdf_high_snr, snr_survival_closed)
    if isinstance(sys, SwiptSystem) and math.isnan(outage):
        raise OutOfRegimeError(f"approximate relay CDF > 1: gamma_hat_r = "
                               f"{derive_snr_scales(sys).gamma_hat_r:.3g} is not large relative "
                               "to m * threshold")
    return outage


def adjudicate_closed_forms(gamma_hat_r: float, gamma_hat_d: float, m, theta: float):
    """Compare every closed-form reading against its quadrature oracle.

    Returns the absolute discrepancies and the name of the matching convention
    for the SR-capacity upper parameter and the RD-capacity prefactor: a dict,
    or one per m of a sequence.  One call per route takes every m; the printed
    SR reading G^{1,3}_{3,2}(1 - m/gamma_hat_r, 1, 1; 1, 0 | gamma_hat_r / m)
    / (2 Gamma(m) ln 2) is one ``specfun.meijer_g`` per m.
    """
    ms = np.atleast_1d(m)
    reports = [{
        "sr_quadrature": sr_quad,
        "sr_upper_param_1_minus_m": sr_std,
        "sr_upper_param_printed": sr_printed,
        "sr_matching_variant": "1-m" if abs(sr_std - sr_quad) <= abs(sr_printed - sr_quad) else "printed",
        "sr_match_abs_error": abs(sr_std - sr_quad),
        "rd_quadrature": rd_quad,
        "rd_prefactor_no_pi": rd_no_pi,
        "rd_prefactor_printed_pi": rd_no_pi / math.pi,
        "rd_matching_variant": "prefactor-times-bracket-no-pi"
        if abs(rd_no_pi - rd_quad) <= abs(rd_no_pi / math.pi - rd_quad)
        else "printed-pi",
        "rd_match_abs_error": abs(rd_no_pi - rd_quad),
    } for sr_quad, sr_std, sr_printed, rd_quad, rd_no_pi in zip(*(values.tolist() for values in (
        ergodic_capacity_sr(gamma_hat_r, ms), capacity_sr_meijer(gamma_hat_r, ms),
        _in_bits(np.array([specfun.meijer_g((1.0 - mj / gamma_hat_r, 1.0, 1.0), gamma_hat_r / mj)
                           / math.gamma(mj) for mj in ms.tolist()])),
        ergodic_capacity_rd(gamma_hat_d, ms, theta), capacity_rd_meijer(gamma_hat_d, ms, theta))))]
    return reports[0] if np.ndim(m) == 0 else reports
