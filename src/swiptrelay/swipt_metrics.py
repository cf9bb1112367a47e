"""Power-splitting SWIPT relay model and its performance metrics.

The quadrature of each defining integral is the authoritative value.  The
Bessel/Meijer-G closed forms are evaluated alongside; two printed closed
forms carry ambiguities, so ``adjudicate_closed_forms`` reports which
reading matches quadrature (see the convention notes in each docstring).

The hop capacities take one SNR scale and broadcast: the SR ones over m,
the RD ones over m and theta, scalars (a float) or arrays (an array of
the broadcast shape).  All columns share one quadrature or contour whose
nodes evaluate the terms free of m and theta once; more than one column
moves a value at the rounding level, and every guard names its column's
m and theta.  The outage functions take one system, or a sequence of
systems that share gamma_hat_d and m.
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
from .product_dist import (
    EndToEndSnrModel,
    closed_form_model,
    product_cdf_general,
    snr_pdf_closed,
    snr_survival_closed,
)

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


def destination_snr_model(sys: SwiptSystem) -> EndToEndSnrModel:
    scales = derive_snr_scales(sys)
    return closed_form_model(scales.gamma_hat_d, sys.fading_m, fgm_copula(sys.theta))


def relay_snr_cdf(gamma_hat_r: float, m: int, gamma: float) -> float:
    """CDF of the relay SNR: the Nakagami-m power law with mean gamma_hat_r."""
    return power_cdf(NakagamiPower(m, gamma_hat_r), gamma)


def ergodic_capacity_sr(gamma_hat_r: float, m) -> float | np.ndarray:
    """SR-hop ergodic capacity (bits/channel use, incl. the half-duplex 1/2).

    Authoritative route: adaptive quadrature of E[ln(1+gamma)]/(2 ln 2) with
    gamma ~ Gamma(m, gamma_hat_r/m), one quadrature for every m (module docstring).
    """
    if gamma_hat_r <= 0.0:
        raise ValueError("gamma_hat_r must be positive")
    ms = np.asarray(m)
    s, small, nodes = gamma_hat_r / ms, min(1.0, gamma_hat_r), (slice(None),) + (None,) * ms.ndim

    def integrand(v: np.ndarray) -> np.ndarray:
        # Over v = ln u, where the kink of ln(1 + s u) near u = 1/s is as
        # smooth as the Gamma mass near u = m; in logs, so u ** m and
        # Gamma(m) cannot overflow at large m.
        u = np.exp(v)[nodes]
        return np.log1p(s * u) * np.exp(ms * v[nodes] - u - gammaln(ms))

    # Between the gain's 1e-17 quantiles, as in the RD quadrature, split at
    # the kink v = -ln s and the mode v = ln m; the mass left out costs at
    # most 1e-17 of the capacity.  Both tolerances shrink with the capacity, about
    # gamma_hat_r / (2 ln 2) below 1.
    val, err = specfun.gauss_kronrod(integrand, math.log(gammaincinv(ms, 1e-17).min()),
                                     math.log(gammainccinv(ms, 1e-17).max()),
                                     epsabs=1e-12 * small, epsrel=1e-11, limit=300,
                                     points=np.concatenate((-np.log(s), np.log(ms)), axis=None))
    for mj, v, e in zip(ms.ravel(), np.ravel(val), np.ravel(err)):
        if not e <= 1e-8 * max(abs(v), small):
            raise specfun.QuadratureError(f"SR capacity quadrature error {e:.2e} at m = {mj}")
    return val / (2.0 * _LN2)


def capacity_sr_meijer(gamma_hat_r: float, m, printed_variant: bool = False) -> float | np.ndarray:
    """SR capacity G^{1,3}_{3,2}(a1, 1, 1; 1, 0 | gamma_hat_r / m) / (2 Gamma(m) ln 2),
    one Mellin-Barnes contour at Re s = -1/2 for every m (module docstring).

    The default reading uses upper parameter a1 = 1-m, which matches
    quadrature; ``printed_variant=True`` evaluates the 1 - m/gamma_hat_r reading.
    """
    if not gamma_hat_r > 0.0:
        raise ValueError("gamma_hat_r must be positive")
    ms = np.asarray(m)
    x, nodes = gamma_hat_r / ms, (slice(None),) + (None,) * ms.ndim
    b = ms / gamma_hat_r if printed_variant else ms  # 1 - a1

    def ln_integrand(s: np.ndarray) -> np.ndarray:
        return ((_loggamma(1.0 + s) + 2.0 * _loggamma(-s) - _loggamma(1.0 - s))[nodes]
                + _loggamma(b - s[nodes]) - gammaln(ms) - s[nodes] * np.log(x))

    names = [f"Meijer G (1, 3, 3, 2) at x={v:.6g}, m={mj}" for v, mj in zip(x.flat, ms.flat)]
    return specfun.mellin_barnes(ln_integrand, -0.5, names) / (2.0 * _LN2)


def _rd_models(gamma_hat_d: float, m: int, theta) -> list[EndToEndSnrModel]:
    """The destination SNR models at each theta of a scalar or a sequence."""
    return [closed_form_model(gamma_hat_d, m, fgm_copula(t)) for t in np.atleast_1d(theta)]


def ergodic_capacity_rd(gamma_hat_d: float, m, theta) -> float | np.ndarray:
    """RD-hop ergodic capacity by quadrature of ln(1+y) against the product-SNR density,
    one quadrature for every (m, theta) column (module docstring)."""
    if gamma_hat_d <= 0.0:
        raise ValueError("gamma_hat_d must be positive")
    ms, thetas = np.broadcast_arrays(m, theta)
    distinct = list(dict.fromkeys(ms.ravel().tolist()))
    groups = [(ms.ravel() == mj, _rd_models(gamma_hat_d, mj, thetas[ms == mj])) for mj in distinct]

    def integrand(s: np.ndarray) -> np.ndarray:
        # y = s^2 smooths the sqrt(y) Bessel arguments; one density call per m and round.
        y = s * s
        weight, out = (2.0 * s * np.log1p(y))[:, None], np.empty((len(s), ms.size))
        for cols, models in groups:
            out[:, cols] = weight * snr_pdf_closed(models, y)
        return out.reshape(len(s), *ms.shape)

    # The density's mass sits at s ~ sqrt(gamma_hat_d).  Below gamma_hat_d = 1
    # the interval and the absolute tolerance shrink with it, or the quadrature
    # never samples the mass and returns about 0 with a tiny error estimate.  Above,
    # the interval ends where both hop gains pass their 1e-17 upper quantile.
    small = min(1.0, gamma_hat_d)
    hi = max(math.sqrt(gamma_hat_d) * float(gammainccinv(mj, 1e-17)) / mj for mj in distinct)
    val, err = specfun.gauss_kronrod(integrand, 0.0, hi + 40.0 * math.sqrt(small),
                                     epsabs=1e-11 * small, epsrel=1e-10, limit=400,
                                     points=[math.sqrt(gamma_hat_d)])
    for mj, t, v, e in zip(ms.ravel(), thetas.ravel(), np.ravel(val), np.ravel(err)):
        if not e <= 1e-7 * max(abs(v), 1.0):
            raise specfun.QuadratureError(
                f"RD capacity quadrature error {e:.2e} at theta = {t:.6g}, m = {mj}")
    return val / (2.0 * _LN2)


def capacity_rd_meijer(gamma_hat_d: float, m, theta) -> float | np.ndarray:
    """RD capacity via the G^{1,4}_{4,2} closed form, summed as one contour integral.

    The prefactor multiplies the whole bracket.  The printed prefactor has a
    pi in its denominator; the reading without it matches quadrature and is
    the one computed here (the printed reading is this value divided by pi).
    With x = gamma_hat_d / m^2, the bracket weighs G at x by 1 + theta, at
    x/2 by -theta 2^(2-m-k)/k! and at x/4 by theta 2^(2-2m-k-n)/(k! n!); the
    prefactor is 1 / (2 Gamma(m)^2 ln 2).  The terms share one Mellin-Barnes
    kernel, as Gamma(m+k-s) = Gamma(m-s) (m-s)_k and the weights factor in k
    and n: with Q(s) = sum_{k<m} (m-s)_k / (2^k k!) and u = 2^(1-m+s) Q(s),
    the 1 + m + m^2 terms are one contour integral at s = -1/2 + it,

      C = 1 / (2 pi ln 2) int_0^inf Re[Gamma(1+s) Gamma(-s)^2 Gamma(m-s)^2
          / (Gamma(m)^2 Gamma(1-s)) x^-s (1 + theta (1 - u)^2)] dt,

    with 1 / Gamma(m)^2 in the log integrand, so the peak stays in range up
    to m = 100.  No power of gamma_hat_d is formed.  Every (m, theta) column
    shares one contour quadrature (module docstring).
    """
    ms, thetas = np.broadcast_arrays(m, theta)
    distinct = list(dict.fromkeys(ms.ravel().tolist()))
    column = np.reshape([distinct.index(mj) for mj in ms.flat], ms.shape)

    def ln_integrand(s: np.ndarray) -> np.ndarray:
        front, back = _loggamma(1.0 + s) + 2.0 * _loggamma(-s), _loggamma(1.0 - s)
        ln_kernel, u = [], []
        for mj in distinct:
            q, term = 0.0, 1.0
            for k in range(mj):
                q += term
                term *= (mj + k - s) / (2.0 * k + 2.0)
            u.append((1.0 - 2.0 ** (1 - mj + s) * q) ** 2)
            ln_kernel.append(front + 2.0 * _loggamma(mj - s) - back - 2.0 * float(gammaln(mj))
                             - s * math.log(gamma_hat_d / (mj * mj)))
        # For theta < 0 the weight vanishes at u = 1 +- 1/sqrt(-theta); its log is -inf there.
        with np.errstate(divide="ignore"):
            ln_weight = np.log(1.0 + thetas * np.stack(u, axis=1)[:, column])
        return np.stack(ln_kernel, axis=1)[:, column] + ln_weight

    names = [f"RD capacity contour (m={mj}, theta={t:.6g}) at x={gamma_hat_d / (mj * mj):.6g}"
             for mj, t in zip(ms.ravel().tolist(), thetas.ravel())]
    return specfun.mellin_barnes(ln_integrand, -0.5, names) / (2.0 * _LN2)


def ergodic_capacity_system(sys: SwiptSystem) -> dict:
    """Both hop capacities by quadrature and their minimum, min(E C_sr, E C_rd).

    This is the minimum of the means; the Monte-Carlo ``cap_min`` estimates
    E[min(C_sr, C_rd)] instead, and the two differ unless one hop strictly
    dominates.
    """
    scales = derive_snr_scales(sys)
    c_sr = ergodic_capacity_sr(scales.gamma_hat_r, sys.fading_m)
    c_rd = ergodic_capacity_rd(scales.gamma_hat_d, sys.fading_m, sys.theta)
    return {"capacity_sr": c_sr, "capacity_rd": c_rd, "min_of_means": min(c_sr, c_rd)}


def _outage(sys, q: OutageQuery, relay_cdf, destination_survival):
    """P(min(gamma_r, gamma_d) <= t) = 1 - C(S_r(t), S_d(t)): the FGM survival
    copula coincides with the FGM copula itself.

    ``sys`` is one system, which gives a float, or a sequence of systems
    that share gamma_hat_d and fading_m, which gives a list.  Each system's
    relay CDF comes first, then one ``destination_survival(models, t)`` call
    takes the destination models at their distinct thetas (first-seen order)
    and returns one survival per model.
    """
    systems = [sys] if isinstance(sys, SwiptSystem) else list(sys)
    if q.threshold == 0.0:
        outages = [0.0] * len(systems)
    else:
        scales = [derive_snr_scales(s) for s in systems]
        gamma_hat_d, m = scales[0].gamma_hat_d, systems[0].fading_m
        if any((sc.gamma_hat_d, s.fading_m) != (gamma_hat_d, m) for s, sc in zip(systems, scales)):
            raise ValueError("the systems of one outage call must share gamma_hat_d and fading_m")
        surv_r = [1.0 - relay_cdf(sc.gamma_hat_r, m, q.threshold) for sc in scales]
        thetas = list(dict.fromkeys(s.theta for s in systems))
        surv_d = dict(zip(thetas, destination_survival(_rd_models(gamma_hat_d, m, thetas),
                                                       q.threshold)))
        outages = [1.0 - copula_cdf(fgm_copula(s.theta), r, surv_d[s.theta])
                   for s, r in zip(systems, surv_r)]
    return outages[0] if isinstance(sys, SwiptSystem) else outages


def outage_probability(sys, q: OutageQuery):
    """P(min(gamma_r, gamma_d) <= threshold) via the FGM survival-copula composition
    (one system, or a sequence sharing gamma_hat_d and m: ``_outage``)."""
    return _outage(sys, q, relay_snr_cdf, snr_survival_closed)


def _survival_quadrature(models, y: float) -> np.ndarray:
    """1 - the general product CDF of each model at y; 0 where y / gamma_hat_d
    overflows, which the integral refuses."""
    if y / models[0].snr_scale == math.inf:
        return np.zeros(len(models))
    return 1.0 - product_cdf_general(models, y)


def outage_probability_quadrature(sys, q: OutageQuery):
    """Same composition with the destination CDF from the general product integral."""
    return _outage(sys, q, relay_snr_cdf, _survival_quadrature)


def asymptotic_capacity_sr(gamma_hat_r: float, m: int) -> float:
    """High-SNR SR capacity: (psi(m) + ln(gamma_hat_r / m)) / (2 ln 2).

    This is E[ln gamma]/(2 ln 2), the reading validated by quadrature; the
    printed form with a 1/Gamma(m) prefactor does not match and is not
    implemented.
    """
    if gamma_hat_r <= 0.0:
        raise ValueError("gamma_hat_r must be positive")
    return (float(psi(m)) + math.log(gamma_hat_r / m)) / (2.0 * _LN2)


def _relay_cdf_high_snr(gamma_hat_r: float, m: int, t: float) -> float:
    """m^m t^m / (gamma_hat_r^m Gamma(m+1)); above 1 the high-SNR premise fails."""
    try:
        f_r = (m * t / gamma_hat_r) ** m / math.exp(gammaln(m + 1))
    except OverflowError:
        f_r = math.inf
    if f_r > 1.0:
        raise OutOfRegimeError(f"approximate relay CDF {f_r:.3g} > 1; gamma_hat_r={gamma_hat_r:.3g} "
                               "is not large relative to m*threshold")
    return f_r


def asymptotic_outage(sys, q: OutageQuery):
    """High-SNR outage: the outage composition with the polynomial relay CDF, refused (not clamped) above 1."""
    return _outage(sys, q, _relay_cdf_high_snr, snr_survival_closed)


def adjudicate_closed_forms(gamma_hat_r: float, gamma_hat_d: float, m, theta: float):
    """Compare every closed-form reading against its quadrature oracle.

    Returns the absolute discrepancies and the name of the matching convention
    for the SR-capacity upper parameter and the RD-capacity prefactor: a dict,
    or one per m of a sequence (one call per route and reading for all m).
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
        capacity_sr_meijer(gamma_hat_r, ms, printed_variant=True),
        ergodic_capacity_rd(gamma_hat_d, ms, theta), capacity_rd_meijer(gamma_hat_d, ms, theta))))]
    return reports[0] if np.ndim(m) == 0 else reports
