"""Distribution of the end-to-end SNR: scale * g_sr * g_rd under dependence.

Two routes are provided and cross-checked against each other:

* ``product_cdf_general`` — numerical integral of the copula-weighted
  product CDF; valid for any FGM theta and any shape m >= 0.5.  It takes a
  scalar or an array of thresholds and integrates them all in one
  ``quad_vec`` call over s, where g_sr = sqrt(y / snr_scale) e^s, between
  bounds set by the SR marginal's far quantiles.  It uses the incomplete
  gamma function and no Bessel term, so it stays the closed forms' oracle.
* ``snr_cdf_closed`` / ``snr_pdf_closed`` — Bessel-K closed forms for the
  FGM copula with a common integer shape m and unit mean powers.

The printed closed forms weigh Bessel terms by powers of snr_scale that all
cancel: they depend on y only through z = zeta sqrt(y), zeta = 2m / sqrt(snr_scale).
With alpha_n = (z/2)^n / n! and beta_n = (z/(2 sqrt2))^n / n! for n < m, r(alpha)
alpha reversed and * the polynomial product, they sum by Bessel order (6m - 3
and 3m exp-scaled terms, so the deep tail underflows to 0 instead of cancelling):

  S(y) = 2 (z/2)^m / Gamma(m) [(1 + theta) e^-z sum_n alpha_n K_{n-m}(z)
         - theta 2^(m/2+1) e^-sqrt2 z sum_j (beta*beta)_j K_{j-m}(sqrt2 z)
         + 2 theta e^-2z sum_i (alpha*alpha*r(alpha))_i K_{i+1-2m}(2z)]
  f(y) = (2/y) ((z/2)^m / Gamma(m))^2 [(1 + theta) e^-z K_0(z)
         - 4 theta e^-sqrt2 z sum_k beta_k K_k(sqrt2 z)
         + 4 theta e^-2z sum_i (alpha*r(alpha))_i K_{i+1-m}(2z)]

Where a term overflows instead (tiny z), ``ClosedFormRangeError`` refuses the point.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import beta, gammainc, gammaincinv, gammainccinv, gammaln

from .copula import CopulaModel
from .fading import NakagamiPower
from .specfun import NumericalGuardError, QuadratureError, bessel_k_scaled

# SR-marginal mass left out of the product-CDF quadrature at each end.
_TAIL = 1e-17
_TINY = sys.float_info.min
_SQRT2 = math.sqrt(2.0)


class UnsupportedClosedFormError(ValueError):
    """Closed form requested outside its integer-m / FGM validity region."""


class ClosedFormRangeError(NumericalGuardError):
    """A closed form left its range: survival outside [0, 1], a non-finite density or m > 100."""


@dataclass(frozen=True)
class EndToEndSnrModel:
    """snr_scale * G_sr * G_rd with copula-coupled Gamma marginals."""

    snr_scale: float
    marginal_sr: NakagamiPower
    marginal_rd: NakagamiPower
    copula: CopulaModel

    def __post_init__(self) -> None:
        if self.snr_scale <= 0.0:
            raise ValueError(f"snr_scale must be positive, got {self.snr_scale}")

    def _closed_form_m(self) -> int:
        m = self.marginal_sr.m
        if m != self.marginal_rd.m or m != int(m) or m < 1:
            raise UnsupportedClosedFormError(
                "closed forms need an identical integer shape m >= 1 on both hops "
                f"(got {self.marginal_sr.m}, {self.marginal_rd.m}); "
                "use product_cdf_general instead"
            )
        if self.marginal_sr.mean_power != 1.0 or self.marginal_rd.mean_power != 1.0:
            raise UnsupportedClosedFormError(
                "closed forms assume unit mean powers; fold asymmetry into snr_scale"
            )
        return int(m)


def closed_form_model(snr_scale: float, m: int, copula: CopulaModel) -> EndToEndSnrModel:
    """Convenience constructor for the closed-form validity region."""
    marg = NakagamiPower(m=float(m), mean_power=1.0)
    return EndToEndSnrModel(snr_scale, marg, marg, copula)


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """What the closed forms need of a model: m and zeta, with z = zeta sqrt(y)."""

    m: int
    snr_scale: float
    zeta: float

    @classmethod
    def build(cls, m: int, snr_scale: float) -> "ClosedFormCoefficients":
        if m < 1 or m != int(m):
            raise UnsupportedClosedFormError(f"integer m >= 1 required, got {m}")
        if not 0.0 < snr_scale < math.inf:
            raise ValueError(f"snr_scale must be finite and positive, got {snr_scale}")
        if m > 100:  # checked against quadrature up to here; beyond, the terms leave double range
            raise ClosedFormRangeError(f"m = {m}: the closed forms are evaluated for m <= 100 only")
        return cls(m=int(m), snr_scale=snr_scale, zeta=2.0 * m / math.sqrt(snr_scale))


@functools.lru_cache(maxsize=256)
def closed_form_coefficients(m: int, snr_scale: float) -> ClosedFormCoefficients:
    """``ClosedFormCoefficients.build`` memoized: density quadrature asks for one model hundreds of times."""
    return ClosedFormCoefficients.build(m, snr_scale)


def product_cdf_general(model: EndToEndSnrModel, y):
    """CDF of the scaled product by one vector quadrature over the SR power.

    F(y) = int_0^inf f_sr(g) C_{2|1}(F_rd(y'/g) | F_sr(g)) dg with
    y' = y / snr_scale and C_{2|1}(u2 | u1) = u2 (1 + theta (1 - 2 u1)(1 - u2)),
    the FGM conditional CDF.  Valid for any FGM theta and any m >= 0.5.

    The substitution g = sqrt(y') e^s puts every threshold's split point
    g = sqrt(y') at s = 0, so all thresholds share one ``quad_vec`` call.
    The s range runs from the SR marginal's ``_TAIL`` lower quantile at the
    largest threshold to its ``_TAIL`` upper quantile at the smallest, so
    each threshold leaves at most 2 * ``_TAIL`` of the SR mass out, at any
    scale of y'.

    ``y`` is a scalar or an array of thresholds: a scalar gives a float, an
    array an array of its shape.  y = 0 maps to 0.  A negative or nan y, or
    a y whose y' is not finite, raises ``ValueError``; an error estimate
    above 1e-6 raises ``QuadratureError``.
    """
    ys = np.asarray(y, dtype=float)
    if not np.all(ys >= 0.0):
        raise ValueError(f"SNR threshold must be non-negative, got {y}")
    with np.errstate(over="ignore"):
        yp = ys / model.snr_scale
    if not np.all(np.isfinite(yp)):
        raise ValueError(f"y / snr_scale must be finite, got {y} / {model.snr_scale}")
    cdf = np.zeros(ys.shape)
    positive = yp > 0.0
    if np.any(positive):
        cdf[positive] = _integrate_cdf(model, yp[positive])
    return float(cdf) if cdf.ndim == 0 else cdf


def _integrate_cdf(model: EndToEndSnrModel, yp: np.ndarray) -> np.ndarray:
    """The CDF at positive, finite scaled thresholds ``yp`` (1-D)."""
    sr, rd, theta = model.marginal_sr, model.marginal_rd, model.copula.theta
    m1, r1, m2, r2 = sr.m, sr.rate, rd.m, rd.rate
    half = 0.5 * np.log(yp)
    ln_norm = m1 * math.log(r1) - gammaln(m1)

    def integrand(s: float) -> np.ndarray:
        # f_sr(g) dg = g f_sr(g) ds, with g = sqrt(y') e^s and y'/g = sqrt(y') e^-s.
        ln_g = half + s
        g = np.exp(ln_g)
        u1 = gammainc(m1, r1 * g)
        u2 = gammainc(m2, r2 * np.exp(half - s))
        weight = np.exp(ln_norm + m1 * ln_g - r1 * g)
        return weight * u2 * (1.0 + theta * (1.0 - 2.0 * u1) * (1.0 - u2))

    lo = math.log(gammaincinv(m1, _TAIL) / r1) - half.max()
    hi = math.log(gammainccinv(m1, _TAIL) / r1) - half.min()
    # exp(half + s) may overflow at the far end of a wide threshold range;
    # inf then gives a zero weight and u = 1, both correct limits.  The
    # builtin map is the serial evaluation quad_vec does for workers=1,
    # without the multiprocessing import (0.8 MB of resident memory).
    with np.errstate(over="ignore"):
        val, err = quad_vec(integrand, lo, hi, epsabs=5e-11, epsrel=1e-10, norm="max",
                            points=(0.0,), workers=map)
    if not err <= 1e-6:
        raise QuadratureError(f"product CDF quadrature error estimate {err:.2e} too large")
    return np.clip(val, 0.0, 1.0)


def _series(x: float, m: int) -> list[float]:
    """x^n / n! for n = 0 .. m - 1."""
    terms = [1.0]
    for n in range(1, m):
        terms.append(terms[-1] * x / n)
    return terms


def _product(p: list[float], q: list[float]) -> list[float]:
    """Coefficients of the polynomial product of p and q (lowest power first)."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _bessel_sum(weights: list[float], first_order: int, x: float) -> float:
    """e^-x sum_i weights[i] K_{first_order + i}(x), in logs where e^-x is subnormal."""
    total = 0.0
    for i, w in enumerate(weights):
        total += w * bessel_k_scaled(first_order + i, x)
    scale = math.exp(-x)
    return scale * total if scale >= _TINY or total <= 0.0 else math.exp(math.log(total) - x)


def snr_survival_closed(model: EndToEndSnrModel, y: float) -> float:
    """Survival 1 - F(y) by the Bessel sums of the module docstring; nan or a value off [0, 1] raises."""
    if not y >= 0.0:
        raise ValueError("SNR threshold must be non-negative")
    if y == 0.0:
        return 1.0
    cf = closed_form_coefficients(model._closed_form_m(), model.snr_scale)
    th, m, z = model.copula.theta, cf.m, cf.zeta * math.sqrt(y)
    if math.exp(-z) == 0.0:  # z > 745: the survival is below 1e-124 for every m <= 100
        return 0.0
    alpha = _series(0.5 * z, m)
    bracket = (1.0 + th) * _bessel_sum(alpha, -m, z)
    if th != 0.0:
        beta = _series(z / (2.0 * _SQRT2), m)
        bracket -= th * 2.0 ** (m / 2.0 + 1.0) * _bessel_sum(_product(beta, beta), -m, _SQRT2 * z)
        bracket += 2.0 * th * _bessel_sum(_product(_product(alpha, alpha), alpha[::-1]),
                                          1 - 2 * m, 2.0 * z)
    surv = z * alpha[-1] * bracket  # 2 (z/2)^m / Gamma(m) = z alpha_{m-1}
    if not -1e-9 <= surv <= 1.0 + 1e-9:
        raise ClosedFormRangeError(f"closed-form survival {surv:.6g} at y = {y:.6g} "
                                   "escapes [0, 1] beyond slack")
    return min(max(surv, 0.0), 1.0)


def snr_cdf_closed(model: EndToEndSnrModel, y: float) -> float:
    """Closed-form CDF of the end-to-end SNR (FGM, integer common m)."""
    return 1.0 - snr_survival_closed(model, y)


def snr_pdf_closed(model: EndToEndSnrModel, y: float) -> float:
    """Density at y > 0 by the Bessel sums of the module docstring; a non-finite value raises."""
    if y <= 0.0:
        raise ValueError("density defined for y > 0")
    cf = closed_form_coefficients(model._closed_form_m(), model.snr_scale)
    th, m, z = model.copula.theta, cf.m, cf.zeta * math.sqrt(y)
    e1 = math.exp(-z)
    if e1 == 0.0:  # as in snr_survival_closed
        return 0.0
    alpha = _series(0.5 * z, m)
    bracket = (1.0 + th) * e1 * bessel_k_scaled(0, z)
    if th != 0.0:
        bracket -= 4.0 * th * _bessel_sum(_series(z / (2.0 * _SQRT2), m), 0, _SQRT2 * z)
        bracket += 4.0 * th * _bessel_sum(_product(alpha, alpha[::-1]), 1 - m, 2.0 * z)
    # (2/y) ((z/2)^m / Gamma(m))^2 = (zeta^2 / 2) alpha_{m-1}^2, free of 1/y
    val = 0.5 * cf.zeta**2 * alpha[-1] ** 2 * bracket
    if not math.isfinite(val):
        raise ClosedFormRangeError(f"closed-form density {val} at y = {y:.6g} is not finite")
    return max(val, 0.0)


def mean_snr_factor(m: int, theta: float) -> float:
    """E{g_sr g_rd} under FGM dependence: 1 + theta (1 - h)^2; h^2 is the FGM double sum."""
    if m < 1 or m != int(m):
        raise ValueError(f"integer m >= 1 required, got {m}")
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    m = int(m)
    h = sum(2.0 ** (-(m + k)) / (m * beta(m, k + 1)) for k in range(m))
    return float(1.0 + theta * (1.0 - h) ** 2)
