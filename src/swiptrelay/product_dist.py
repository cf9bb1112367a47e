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

The closed forms are evaluated through exp-scaled Bessel terms so the deep
survival tail keeps relative accuracy instead of rounding to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import gammainc, gammaincinv, gammainccinv, gammaln

from .copula import CopulaModel
from .fading import NakagamiPower
from .specfun import QuadratureError, bessel_k_scaled, beta, ln_gamma

# SR-marginal mass left out of the product-CDF quadrature at each end.
_TAIL = 1e-17


class UnsupportedClosedFormError(ValueError):
    """Closed form requested outside its integer-m / FGM validity region."""


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
    """Coefficient families of the Bessel-series CDF/PDF and RD capacity."""

    m: int
    snr_scale: float
    B: float
    zeta: float
    a: np.ndarray          # (m,)
    b: np.ndarray          # (m, m), indexed [k, n]
    c: np.ndarray          # (m, m), indexed [n, l]
    d: np.ndarray          # (m, m, m), indexed [k, n, l]
    q: np.ndarray          # (m,)
    t: np.ndarray          # (m, m), indexed [k, n]
    w: np.ndarray          # (m,)
    z: np.ndarray          # (m, m), indexed [k, n]
    D: float

    @classmethod
    def build(cls, m: int, snr_scale: float) -> "ClosedFormCoefficients":
        if m < 1 or m != int(m):
            raise UnsupportedClosedFormError(f"integer m >= 1 required, got {m}")
        if snr_scale <= 0.0:
            raise ValueError("snr_scale must be positive")
        m = int(m)
        g = snr_scale
        B = 2.0 * m ** (2 * m) / (g**m * math.exp(2.0 * ln_gamma(m)))
        zeta = 2.0 * m / math.sqrt(g)
        idx = np.arange(m, dtype=float)
        fact = np.array([math.factorial(i) for i in range(m)])
        a = m**idx / (g ** (idx / 2.0) * fact)
        k = idx[:, None]
        n = idx[None, :]
        fk = fact[:, None]
        fn = fact[None, :]
        b = m ** (k + n) * 2.0 ** ((n - k - m + 2.0) / 2.0) / (g ** ((k + n) / 2.0) * fk * fn)
        # c is indexed [n, l] with the same algebraic form.
        c = m ** (k + n) * 2.0 ** ((-n + m - k) / 2.0) / (g ** ((k + n) / 2.0) * fk * fn)
        kk = idx[:, None, None]
        nn = idx[None, :, None]
        ll = idx[None, None, :]
        d = (
            2.0
            * m ** (kk + nn + ll)
            / (g ** ((kk + nn + ll) / 2.0) * fact[:, None, None] * fact[None, :, None] * fact[None, None, :])
        )
        q = 2.0 ** (2.0 - idx / 2.0) * m**idx / (g ** (idx / 2.0) * fact)
        t = 4.0 * m ** (k + n) / (g ** ((k + n) / 2.0) * fk * fn)
        w = 2.0 ** (2.0 - m) * m**idx / (g ** (idx / 2.0) * zeta**idx * fact)
        z = 2.0 ** (2.0 - 2.0 * m) * m ** (k + n) / (
            g ** ((k + n) / 2.0) * zeta ** (k + n) * fk * fn
        )
        # NB: the capacity prefactor is 2^(2m-2) B / (zeta^(2m) ln 2); see
        # swipt_metrics.adjudicate_closed_forms for the convention report.
        D = 2.0 ** (2 * m - 2) * B / (zeta ** (2 * m) * math.log(2.0))
        for arr in (a, b, c, d, q, t, w, z):
            arr.flags.writeable = False
        return cls(m=m, snr_scale=g, B=B, zeta=zeta, a=a, b=b, c=c, d=d, q=q, t=t, w=w, z=z, D=D)


@functools.lru_cache(maxsize=256)
def closed_form_coefficients(m: int, snr_scale: float) -> ClosedFormCoefficients:
    """``ClosedFormCoefficients.build`` memoized on (m, snr_scale).

    Quadrature over the closed-form density asks for the same model hundreds
    of times; the coefficient arrays are read-only, so sharing them is safe.
    """
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


def snr_survival_closed(model: EndToEndSnrModel, y: float) -> float:
    """Survival function 1 - F(y) from the Bessel-series closed form.

    Evaluated with exp-scaled Bessel terms grouped by argument, so the deep
    tail degrades gracefully to exact underflow instead of cancelling.
    """
    if y < 0.0:
        raise ValueError("SNR threshold must be non-negative")
    if y == 0.0:
        return 1.0
    cf = closed_form_coefficients(model._closed_form_m(), model.snr_scale)
    th = model.copula.theta
    m = cf.m
    sq = math.sqrt(y)
    z1 = cf.zeta * sq
    z2 = cf.zeta * math.sqrt(2.0 * y)
    z3 = 2.0 * cf.zeta * sq

    A = sum(
        cf.a[n] * y ** ((m + n) / 2.0) * bessel_k_scaled(n - m, z1) for n in range(m)
    )
    if th != 0.0:
        Bsum = sum(
            cf.b[k, n] * y ** ((k + n + m) / 2.0) * bessel_k_scaled(n - k - m, z2)
            for k in range(m)
            for n in range(m)
        )
        Csum = sum(
            cf.c[n, l] * y ** ((l + m + n) / 2.0) * bessel_k_scaled(l - m + n, z2)
            for n in range(m)
            for l in range(m)
        )
        Dsum = sum(
            cf.d[k, n, l] * y ** ((k + n + l + m) / 2.0) * bessel_k_scaled(n + l - k - m, z3)
            for k in range(m)
            for n in range(m)
            for l in range(m)
        )
    else:
        Bsum = Csum = Dsum = 0.0

    root = math.sqrt(2.0 * cf.B)
    surv = root * (
        (1.0 + th) * A * math.exp(-z1)
        - th * (Bsum + Csum) * math.exp(-z2)
        + th * Dsum * math.exp(-z3)
    )
    if surv < -1e-9 or surv > 1.0 + 1e-9:
        raise RuntimeError(f"closed-form survival {surv} escapes [0, 1] beyond slack")
    return min(max(surv, 0.0), 1.0)


def snr_cdf_closed(model: EndToEndSnrModel, y: float) -> float:
    """Closed-form CDF of the end-to-end SNR (FGM, integer common m)."""
    return 1.0 - snr_survival_closed(model, y)


def snr_pdf_closed(model: EndToEndSnrModel, y: float) -> float:
    """Closed-form density of the end-to-end SNR at y > 0."""
    if y <= 0.0:
        raise ValueError("density defined for y > 0")
    cf = closed_form_coefficients(model._closed_form_m(), model.snr_scale)
    th = model.copula.theta
    m = cf.m
    z1 = cf.zeta * math.sqrt(y)
    z2 = cf.zeta * math.sqrt(2.0 * y)
    z3 = 2.0 * cf.zeta * math.sqrt(y)

    base = (1.0 + th) * y ** (m - 1.0) * bessel_k_scaled(0.0, z1) * math.exp(-z1)
    qsum = 0.0
    tsum = 0.0
    if th != 0.0:
        qsum = sum(
            cf.q[k] * y ** (k / 2.0 + m - 1.0) * bessel_k_scaled(k, z2) for k in range(m)
        ) * math.exp(-z2)
        tsum = sum(
            cf.t[k, n] * y ** ((k + n) / 2.0 + m - 1.0) * bessel_k_scaled(n - k, z3)
            for k in range(m)
            for n in range(m)
        ) * math.exp(-z3)
    val = cf.B * (base - th * qsum + th * tsum)
    return max(val, 0.0)


def mean_snr_factor(m: int, theta: float) -> float:
    """E{g_sr g_rd} under FGM dependence: 1 + theta (1 - f(m))."""
    if m < 1 or m != int(m):
        raise ValueError(f"integer m >= 1 required, got {m}")
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    m = int(m)
    single = sum(2.0 ** (-(m + k - 1)) / (m * beta(m, k + 1)) for k in range(m))
    double = sum(
        2.0 ** (-(2 * m + k + n)) / (m * m * beta(m, k + 1) * beta(m, n + 1))
        for k in range(m)
        for n in range(m)
    )
    f_m = single - double
    return 1.0 + theta * (1.0 - f_m)
