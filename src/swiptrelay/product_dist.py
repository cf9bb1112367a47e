"""Distribution of the end-to-end SNR: snr_scale * g_sr * g_rd under dependence.

g_sr and g_rd are unit-mean Nakagami-m powers, Gamma(m, 1/m), coupled by the
FGM copula with parameter theta.  Two routes are provided and cross-checked
against each other:

* ``product_cdf_general`` — numerical integral of the copula-weighted
  product CDF; valid for any theta and any real m >= 0.5.  It integrates
  every threshold and m in one vector Gauss-Kronrod quadrature over s, where
  g_sr = sqrt(y / snr_scale) e^s, between bounds set by the SR marginal's
  far quantiles.  It uses the incomplete gamma function and no Bessel term,
  so it stays the closed forms' oracle.
* ``snr_survival_closed`` / ``snr_cdf_closed`` / ``snr_pdf_closed`` —
  Bessel-K closed forms for an integer m in [1, 100].

Each takes ``(snr_scale, m, theta, y)``, broadcast under numpy rules
(scalars give a float, arrays an array of the broadcast shape).  theta
enters only through the FGM weight, so the terms free of it (the Bessel
sums; the incomplete gammas and weight at each node) are evaluated once per
point of the broadcast of (snr_scale, m, y), and theta only in the final
product.  A call with snr_scale, m and y of shape (p, 1) and theta of shape
(k,) thus evaluates p points and returns (p, k).  The closed forms evaluate
terms by points, each distinct m's points together: every element equals
its own scalar call bit for bit, and every guard holds per element, its
error naming the first offending y (and theta).  The quadrature integrates
every point at every theta of the call, whatever its m, and shares its
panels over them, so its values move with the call at the rounding level.

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

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammainccinv, gammaln

from .copula import CopulaModel
from .fading import NakagamiPower
from .specfun import NumericalGuardError, QuadratureError, bessel_k_scaled, gauss_kronrod

# SR-marginal mass left out of the product-CDF quadrature at each end.
_TAIL = 1e-17
_TINY = sys.float_info.min
_SQRT2 = math.sqrt(2.0)


class UnsupportedClosedFormError(ValueError):
    """Closed form requested outside its integer-m / FGM validity region."""


class ClosedFormRangeError(NumericalGuardError):
    """A closed form left its range: survival outside [0, 1], a non-finite density or m > 100."""


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """What the closed forms need of one SNR scale: m and zeta, with z = zeta sqrt(y)."""

    m: int
    snr_scale: float
    zeta: float

    @classmethod
    def build(cls, m: float, snr_scale: float) -> "ClosedFormCoefficients":
        """The one check of the closed forms' region: ``closed_form_m`` and a finite positive scale."""
        m = closed_form_m(m)
        if not 0.0 < snr_scale < math.inf:
            raise ValueError(f"snr_scale must be finite and positive, got {snr_scale}")
        return cls(m=m, snr_scale=snr_scale, zeta=2.0 * m / math.sqrt(snr_scale))


def closed_form_m(m) -> int:
    """m as an int, checked to be a whole number in [1, 100] (nan and inf fail)."""
    if not (m >= 1 and float(m).is_integer()):
        raise UnsupportedClosedFormError(
            f"closed forms need an integer shape m >= 1, got {m}; use product_cdf_general instead")
    if m > 100:  # checked against quadrature up to here; beyond, the terms leave double range
        raise ClosedFormRangeError(f"m = {m}: the closed forms are evaluated for m <= 100 only")
    return int(m)


def _check(ok: np.ndarray, error: type, message: str, *columns: np.ndarray) -> None:
    """Raise ``error`` with ``message`` formatted at the first point where ``ok``
    is false; ``columns`` broadcast to the shape of ``ok``."""
    ok = np.asarray(ok)
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise error(message.format(*(np.broadcast_to(c, ok.shape).flat[i] for c in columns)))


def fgm_thetas(theta) -> np.ndarray:
    """theta as an array, each element checked to lie in [-1, 1] (nan fails)."""
    th = np.asarray(theta, dtype=float)
    _check((th >= -1.0) & (th <= 1.0), ValueError, "FGM theta must lie in [-1, 1], got {:.6g}", th)
    return th


def _result(values: np.ndarray):
    """A 0-d result as a float, any other as the array."""
    return float(values) if values.ndim == 0 else values


def product_cdf_general(snr_scale, m, theta, y):
    """CDF of the scaled product by one vector quadrature over the SR power.

    F(y) = int_0^inf f_sr(g) C_{2|1}(F_rd(y'/g) | F_sr(g)) dg with
    y' = y / snr_scale and C_{2|1}(u2 | u1) = u2 (1 + theta (1 - 2 u1)(1 - u2)),
    the FGM conditional CDF.  Valid for any theta and any real m >= 0.5.

    The substitution g = sqrt(y') e^s puts every threshold's split point
    g = sqrt(y') at s = 0, so all points of (snr_scale, m, y) share one
    ``gauss_kronrod`` call, which evaluates nodes by points by thetas as one
    array.  The s range runs from the lowest of the points' SR ``_TAIL``
    lower quantiles at their y' to the highest of their ``_TAIL`` upper
    quantiles, so each point leaves at most 2 * ``_TAIL`` of the SR mass out,
    at any scale of y' and any m.

    The arguments broadcast (module docstring).  y' = 0 maps to 0, and a y'
    that overflows to the limit 1.  A scale that is not finite and
    positive, a theta off [-1, 1], a negative, infinite or nan y, or an m
    below 0.5 raises ``ValueError``; an error estimate above 1e-6 at any
    point ``QuadratureError`` naming its theta.
    """
    th = fgm_thetas(theta)
    scale, ms, ys = np.broadcast_arrays(np.asarray(snr_scale, dtype=float), np.asarray(m),
                                        np.asarray(y, dtype=float))
    for mj in dict.fromkeys(ms.ravel().tolist()):
        NakagamiPower(mj)  # the marginal owns the m range
    _check((scale > 0.0) & (scale < math.inf), ValueError,
           "snr_scale must be finite and positive, got {:.6g}", scale)
    _check((ys >= 0.0) & (ys < math.inf), ValueError,
           "SNR threshold must be finite and non-negative, got y = {:.6g}", ys)
    with np.errstate(over="ignore"):
        yp = (ys / scale).ravel()
    # Rows the points of (snr_scale, m, y), columns every theta of the call.
    cdf = np.where(yp > 0.0, 1.0, 0.0)[:, None].repeat(th.size, axis=1)
    inner = (yp > 0.0) & (yp < math.inf)
    if inner.any():
        cdf[inner] = _integrate_cdf(ms.ravel()[inner].astype(float), th.ravel(), yp[inner])
    shape = np.broadcast_shapes(scale.shape, th.shape)
    return _result(cdf[np.broadcast_to(np.arange(yp.size).reshape(scale.shape), shape),
                       np.broadcast_to(np.arange(th.size).reshape(th.shape), shape)])


def _integrate_cdf(m: np.ndarray, thetas: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """The CDF at positive, finite scaled thresholds ``yp`` (1-D), each with
    its SR shape in ``m`` (unit mean, so the rate is m): rows thresholds,
    columns ``thetas``."""
    # Per distinct m by math.log: the bits of a call with that m alone.
    by_m = {mj: (mj * math.log(mj) - gammaln(mj), math.log(gammaincinv(mj, _TAIL) / mj),
                 math.log(gammainccinv(mj, _TAIL) / mj)) for mj in dict.fromkeys(m.tolist())}
    ln_norm, ln_lo, ln_hi = np.array([by_m[mj] for mj in m.tolist()]).T
    half = 0.5 * np.log(yp)

    def integrand(s: np.ndarray) -> np.ndarray:
        # f_sr(g) dg = g f_sr(g) ds, with g = sqrt(y') e^s and y'/g = sqrt(y') e^-s;
        # axes are nodes s, thresholds, thetas: only the last product takes theta.
        ln_g = half + s[:, None]
        g = np.exp(ln_g)
        u1 = gammainc(m, m * g)
        u2 = gammainc(m, m * np.exp(half - s[:, None]))
        weight = np.exp(ln_norm + m * ln_g - m * g)
        return (weight * u2)[..., None] * (1.0 + thetas * (1.0 - 2.0 * u1)[..., None]
                                           * (1.0 - u2)[..., None])

    # exp(half + s) may overflow at the far end of a wide threshold range: inf
    # gives a zero weight and u = 1, both correct limits (gauss_kronrod is quiet).
    val, err = gauss_kronrod(integrand, float((ln_lo - half).min()), float((ln_hi - half).max()),
                             epsabs=5e-11, epsrel=1e-10, limit=10000, points=(0.0,))
    _check(err <= 1e-6, QuadratureError,
           "product CDF quadrature error estimate {:.2e} too large at theta = {:.6g}", err, thetas)
    return np.clip(val, 0.0, 1.0)


def _series(x: np.ndarray, m: int) -> np.ndarray:
    """x^n / n! for n = 0 .. m - 1: rows n, columns the points of x (1-D)."""
    terms = np.empty((m, len(x)))
    terms[0] = 1.0
    for n in range(1, m):
        terms[n] = terms[n - 1] * x / n
    return terms


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial products of the columns of p and q (lowest power first)."""
    out = np.zeros((len(p) + len(q) - 1, p.shape[1]))
    for i, pi in enumerate(p):
        out[i:i + len(q)] += pi * q
    return out


def _exp_neg(x: np.ndarray) -> np.ndarray:
    """e^-x by ``math.exp``, which is correctly rounded.  numpy's AVX-512 exp is
    1 ulp off on about 4% of arguments, so ``np.exp`` would move closed-form
    digits between machines."""
    return np.fromiter(map(math.exp, (-x).tolist()), float, len(x))


def _bessel_sum(weights: np.ndarray, first_order: int, x: np.ndarray) -> np.ndarray:
    """e^-x sum_i weights[i] K_{first_order + i}(x) per column, in logs where e^-x is subnormal."""
    orders = np.arange(first_order, first_order + len(weights))
    # cumsum adds the rows in order, so a column does not depend on how many
    # columns there are (sum may pair the terms of a single column).
    total = np.cumsum(weights * bessel_k_scaled(orders[:, None], x), axis=0)[-1]
    scale = _exp_neg(x)
    out = scale * total
    logs = (scale < _TINY) & (total > 0.0)
    if logs.any():
        out[logs] = [math.exp(math.log(t) - v) for t, v in zip(total[logs].tolist(), x[logs].tolist())]
    return out


def _closed_points(snr_scale, m, ys: np.ndarray, *by_coefficients):
    """What the closed forms share before theta, over the broadcast of
    (snr_scale, m, y): the mask of the live points (y > 0 and e^-z > 0;
    elsewhere the forms take their limits) and z = zeta sqrt(y) at them; per
    distinct m, its live points as indices into z; and each
    ``by_coefficients(coefficients)`` over the broadcast.  One
    ``ClosedFormCoefficients.build`` per distinct (m, snr_scale) checks m and
    the scale.
    """
    ms, scales = np.broadcast_arrays(np.asarray(m), np.asarray(snr_scale, dtype=float))
    keys = list(zip(ms.ravel().tolist(), scales.ravel().tolist()))
    coeffs = {key: ClosedFormCoefficients.build(*key) for key in dict.fromkeys(keys)}

    def per_key(f):
        return np.reshape([f(coeffs[key]) for key in keys], ms.shape)

    z = per_key(lambda cf: cf.zeta) * np.sqrt(ys)
    # exp(-z) == 0 is z > 745: the survival is below 1e-124 for every m <= 100
    live = (ys > 0.0) & (_exp_neg(z.ravel()) > 0.0).reshape(z.shape)
    m_live = np.broadcast_to(per_key(lambda cf: cf.m), z.shape)[live]
    groups = [(mj, np.flatnonzero(m_live == mj)) for mj in dict.fromkeys(m_live.tolist())]
    return live, z[live], groups, [per_key(f) for f in by_coefficients]


def _at_live(live: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the live points of the mask ``live``, 0 elsewhere."""
    out = np.zeros(live.shape)
    out[live] = values
    return out


def snr_survival_closed(snr_scale, m, theta, y):
    """Survival 1 - F(y) by the Bessel sums of the module docstring; y = 0 maps to 1.

    The arguments broadcast (module docstring).  A negative or nan y, a
    theta off [-1, 1] or a scale that is not finite and positive raises
    ``ValueError``, a value off [0, 1] beyond 1e-9 (nan included)
    ``ClosedFormRangeError``.
    """
    th = fgm_thetas(theta)
    ys = np.asarray(y, dtype=float)
    _check(ys >= 0.0, ValueError, "SNR threshold must be non-negative, got y = {:.6g}", ys)
    live, z, groups, (b_factor,) = _closed_points(snr_scale, m, ys, lambda cf: 2.0 ** (cf.m / 2.0 + 1.0))
    dependent = (th != 0.0).any()  # theta = 0 leaves the dependence terms out, as they may be inf
    # Rows the front 2 (z/2)^m / Gamma(m) = z alpha_{m-1} and the a, b and c sums.
    terms = np.zeros((4, len(z)))
    # Tiny z may overflow a Bessel term and give inf or nan: the range check refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        for mj, at in groups:
            zj = z[at]
            alpha = _series(0.5 * zj, mj)
            terms[:2, at] = zj * alpha[-1], _bessel_sum(alpha, -mj, zj)
            if dependent:
                beta = _series(zj / (2.0 * _SQRT2), mj)
                terms[2:, at] = (_bessel_sum(_product(beta, beta), -mj, _SQRT2 * zj),
                                 _bessel_sum(_product(_product(alpha, alpha), alpha[::-1]), 1 - 2 * mj,
                                             2.0 * zj))
        front, a, b, c = (_at_live(live, row) for row in terms)
        bracket = (1.0 + th) * a
        if dependent:
            bracket = np.where(th != 0.0, bracket - th * b_factor * b + 2.0 * th * c, bracket)
        val = front * bracket
    _check((val >= -1e-9) & (val <= 1.0 + 1e-9), ClosedFormRangeError,
           "closed-form survival {:.6g} (theta = {:.6g}) at y = {:.6g} escapes [0, 1] beyond slack",
           val, th, ys)
    return _result(np.where(live, np.clip(val, 0.0, 1.0), ys == 0.0))


def snr_cdf_closed(snr_scale, m, theta, y):
    """Closed-form CDF of the end-to-end SNR (FGM, integer m)."""
    return 1.0 - snr_survival_closed(snr_scale, m, theta, y)


def snr_pdf_closed(snr_scale, m, theta, y):
    """Density by the Bessel sums of the module docstring.

    The arguments broadcast (module docstring).  A y <= 0 or nan, a theta
    off [-1, 1] or a scale that is not finite and positive raises
    ``ValueError``, a non-finite value ``ClosedFormRangeError``.
    """
    th = fgm_thetas(theta)
    ys = np.asarray(y, dtype=float)
    _check(ys > 0.0, ValueError, "density defined for y > 0, got y = {:.6g}", ys)
    # (2/y) ((z/2)^m / Gamma(m))^2 = (zeta^2 / 2) alpha_{m-1}^2, free of 1/y
    live, z, groups, (half_zeta_sq,) = _closed_points(snr_scale, m, ys, lambda cf: 0.5 * cf.zeta**2)
    dependent = (th != 0.0).any()
    # Rows alpha_{m-1}^2 and the a, b and c sums.
    terms = np.zeros((4, len(z)))
    with np.errstate(over="ignore", invalid="ignore"):
        for mj, at in groups:
            zj = z[at]
            alpha = _series(0.5 * zj, mj)
            terms[:2, at] = alpha[-1] ** 2, _bessel_sum(np.ones((1, len(zj))), 0, zj)
            if dependent:
                terms[2:, at] = (_bessel_sum(_series(zj / (2.0 * _SQRT2), mj), 0, _SQRT2 * zj),
                                 _bessel_sum(_product(alpha, alpha[::-1]), 1 - mj, 2.0 * zj))
        alpha_sq, a, b, c = (_at_live(live, row) for row in terms)
        front = half_zeta_sq * alpha_sq
        bracket = (1.0 + th) * a
        if dependent:
            bracket = np.where(th != 0.0, bracket - 4.0 * th * b + 4.0 * th * c, bracket)
        val = front * bracket
    _check(np.isfinite(val), ClosedFormRangeError,
           "closed-form density {} (theta = {:.6g}) at y = {:.6g} is not finite at m = {}",
           val, th, ys, np.asarray(m))
    return _result(np.maximum(val, 0.0))


def fgm_mellin_sum(m: int, s):
    """Q(s) = sum_{k<m} (m - s)_k / (2^k k!) at an integer m and a scalar or array s: with
    u = 2^(1-m+s) Q(s), E[(g_sr g_rd)^-s] = (Gamma(m - s) m^s / Gamma(m))^2 (1 + theta (1 - u)^2)."""
    q, term = 0.0, 1.0
    for k in range(m):
        q += term
        term *= (m + k - s) / (2.0 * k + 2.0)
    return q


def mean_snr_factor(m: int, theta: float) -> float:
    """E{g_sr g_rd} under FGM dependence: 1 + theta (1 - 2^-m Q(-1))^2 (``fgm_mellin_sum``)."""
    m = closed_form_m(m)
    CopulaModel(theta)  # the copula owns the theta range
    return float(1.0 + theta * (1.0 - 2.0 ** -m * fgm_mellin_sum(m, -1.0)) ** 2)
