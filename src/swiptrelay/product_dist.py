"""Distribution of the end-to-end SNR: scale * g_sr * g_rd under dependence.

Two routes are provided and cross-checked against each other:

* ``product_cdf_general`` — numerical integral of the copula-weighted
  product CDF; valid for any FGM theta and any shape m >= 0.5.  It takes a
  scalar or an array of thresholds and integrates them all in one vector
  Gauss-Kronrod quadrature over s, where g_sr = sqrt(y / snr_scale) e^s, between
  bounds set by the SR marginal's far quantiles.  It uses the incomplete
  gamma function and no Bessel term, so it stays the closed forms' oracle.
* ``snr_cdf_closed`` / ``snr_pdf_closed`` — Bessel-K closed forms for the
  FGM copula with a common integer shape m and unit mean powers.  They take
  a scalar or an array of y (a scalar gives a float, an array an array of
  its shape) and evaluate an array as terms by points: every element equals
  its own scalar call, and every guard holds per element, its error
  naming the first offending y.

Each takes one model, or a sequence of models that differ only in the
copula's theta: theta enters only through the FGM weight, so the terms free
of theta (the Bessel sums, the incomplete gammas) are evaluated once per
node, and each theta's value is formed from them in the order a one-model
call uses.  A sequence gives one value per model along a last axis (shape
y.shape + (k,)); a one-model sequence equals the one-model call bit for bit,
and a guard names the theta it fails at.  The closed forms' values equal
the one-model calls bit for bit for any k; the quadrature shares its panels
over the k models, so its values move at the rounding level.

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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import beta, gammainc, gammaincinv, gammainccinv, gammaln

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
class EndToEndSnrModel:
    """snr_scale * G_sr * G_rd with copula-coupled Gamma marginals."""

    snr_scale: float
    marginal_sr: NakagamiPower
    marginal_rd: NakagamiPower
    copula: CopulaModel

    def __post_init__(self) -> None:
        if self.snr_scale <= 0.0:
            raise ValueError(f"snr_scale must be positive, got {self.snr_scale}")

    def _closed_form_m(self) -> float:
        """The common shape m, unconverted: ``ClosedFormCoefficients.build`` checks its range."""
        m = self.marginal_sr.m
        if m != self.marginal_rd.m:
            raise UnsupportedClosedFormError(
                f"closed forms need an identical shape on both hops (got {m}, {self.marginal_rd.m}); "
                "use product_cdf_general instead"
            )
        if self.marginal_sr.mean_power != 1.0 or self.marginal_rd.mean_power != 1.0:
            raise UnsupportedClosedFormError(
                "closed forms assume unit mean powers; fold asymmetry into snr_scale"
            )
        return m


def closed_form_model(snr_scale: float, m: int, copula: CopulaModel) -> EndToEndSnrModel:
    """Convenience constructor for the closed-form validity region."""
    marg = NakagamiPower(m=float(m), mean_power=1.0)
    return EndToEndSnrModel(snr_scale, marg, marg, copula)


def _split_theta(model) -> tuple[EndToEndSnrModel, np.ndarray, bool]:
    """(the model, the (k,) array of its thetas, whether one model was given)
    for one model or a sequence of models that differ only in theta."""
    if isinstance(model, EndToEndSnrModel):
        return model, np.array([model.copula.theta]), True
    models = list(model)
    if not models:
        raise ValueError("no model given")
    first = models[0]
    if any(replace(other, copula=first.copula) != first for other in models):
        raise ValueError("the models of one call may differ only in theta")
    return first, np.array([other.copula.theta for other in models]), False


def _unsplit(values: np.ndarray, one: bool):
    """A (..., k) result as the caller's shape: one model drops the last axis, a scalar is a float."""
    if one:
        values = values[..., 0]
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """What the closed forms need of a model: m and zeta, with z = zeta sqrt(y)."""

    m: int
    snr_scale: float
    zeta: float

    @classmethod
    def build(cls, m: float, snr_scale: float) -> "ClosedFormCoefficients":
        """The one check of the closed forms' region: integer m in [1, 100], finite positive scale."""
        if m < 1 or m != int(m):
            raise UnsupportedClosedFormError(
                f"closed forms need an integer shape m >= 1, got {m}; use product_cdf_general instead")
        if not 0.0 < snr_scale < math.inf:
            raise ValueError(f"snr_scale must be finite and positive, got {snr_scale}")
        if m > 100:  # checked against quadrature up to here; beyond, the terms leave double range
            raise ClosedFormRangeError(f"m = {m}: the closed forms are evaluated for m <= 100 only")
        return cls(m=int(m), snr_scale=snr_scale, zeta=2.0 * m / math.sqrt(snr_scale))


def product_cdf_general(model: EndToEndSnrModel, y):
    """CDF of the scaled product by one vector quadrature over the SR power.

    F(y) = int_0^inf f_sr(g) C_{2|1}(F_rd(y'/g) | F_sr(g)) dg with
    y' = y / snr_scale and C_{2|1}(u2 | u1) = u2 (1 + theta (1 - 2 u1)(1 - u2)),
    the FGM conditional CDF.  Valid for any FGM theta and any m >= 0.5.

    The substitution g = sqrt(y') e^s puts every threshold's split point
    g = sqrt(y') at s = 0, so all thresholds share one ``gauss_kronrod``
    call, which evaluates nodes by thresholds (by thetas) as one array.
    The s range runs from the SR marginal's ``_TAIL`` lower quantile at the
    largest threshold to its ``_TAIL`` upper quantile at the smallest, so
    each threshold leaves at most 2 * ``_TAIL`` of the SR mass out, at any
    scale of y'.

    ``model`` is one model or a sequence that differs only in theta (module
    docstring).  ``y`` is a scalar or an array of thresholds: a scalar gives
    a float, an array an array of its shape.  y = 0 maps to 0.  A negative
    or nan y, or a y whose y' is not finite, raises ``ValueError``; an error
    estimate above 1e-6 at any threshold raises ``QuadratureError`` naming
    its theta.
    """
    model, thetas, one = _split_theta(model)
    ys = np.asarray(y, dtype=float)
    if not np.all(ys >= 0.0):
        raise ValueError(f"SNR threshold must be non-negative, got {y}")
    with np.errstate(over="ignore"):
        yp = ys / model.snr_scale
    if not np.all(np.isfinite(yp)):
        raise ValueError(f"y / snr_scale must be finite, got {y} / {model.snr_scale}")
    cdf = np.zeros(ys.shape + thetas.shape)
    positive = yp > 0.0
    if np.any(positive):
        cdf[positive] = _integrate_cdf(model, thetas, yp[positive])
    return _unsplit(cdf, one)


def _integrate_cdf(model: EndToEndSnrModel, thetas: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """The CDF at positive, finite scaled thresholds ``yp`` (1-D): rows thresholds, columns ``thetas``."""
    sr, rd = model.marginal_sr, model.marginal_rd
    m1, r1, m2, r2 = sr.m, sr.rate, rd.m, rd.rate
    half = 0.5 * np.log(yp)
    ln_norm = m1 * math.log(r1) - gammaln(m1)

    def integrand(s: np.ndarray) -> np.ndarray:
        # f_sr(g) dg = g f_sr(g) ds, with g = sqrt(y') e^s and y'/g = sqrt(y') e^-s;
        # axes are nodes s, thresholds, thetas: only the last product takes theta.
        ln_g = half + s[:, None]
        g = np.exp(ln_g)
        u1 = gammainc(m1, r1 * g)
        u2 = gammainc(m2, r2 * np.exp(half - s[:, None]))
        weight = np.exp(ln_norm + m1 * ln_g - r1 * g)
        return (weight * u2)[..., None] * (1.0 + thetas * (1.0 - 2.0 * u1)[..., None]
                                           * (1.0 - u2)[..., None])

    lo = math.log(gammaincinv(m1, _TAIL) / r1) - half.max()
    hi = math.log(gammainccinv(m1, _TAIL) / r1) - half.min()
    # exp(half + s) may overflow at the far end of a wide threshold range: inf
    # gives a zero weight and u = 1, both correct limits (gauss_kronrod is quiet).
    val, err = gauss_kronrod(integrand, lo, hi, epsabs=5e-11, epsrel=1e-10, limit=10000,
                             points=(0.0,))
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


def _check(ok: np.ndarray, error: type, message: str, *columns: np.ndarray) -> None:
    """Raise ``error`` with ``message`` formatted at the first point where ``ok``
    is false; ``columns`` broadcast to the shape of ``ok``."""
    ok = np.asarray(ok)
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise error(message.format(*(np.broadcast_to(c, ok.shape).flat[i] for c in columns)))


def snr_survival_closed(model: EndToEndSnrModel, y):
    """Survival 1 - F(y) by the Bessel sums of the module docstring; y = 0 maps to 1.

    ``model`` is one model or a sequence that differs only in theta (module
    docstring).  A negative or nan y raises ``ValueError``, a value off
    [0, 1] beyond 1e-9 (nan included) ``ClosedFormRangeError``.
    """
    model, th, one = _split_theta(model)
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    _check(flat >= 0.0, ValueError, "SNR threshold must be non-negative, got y = {:.6g}", flat)
    cf = ClosedFormCoefficients.build(model._closed_form_m(), model.snr_scale)
    m, z = cf.m, cf.zeta * np.sqrt(flat)
    surv = np.where(flat == 0.0, 1.0, 0.0)[:, None].repeat(len(th), axis=1)
    # exp(-z) == 0 is z > 745: the survival is below 1e-124 for every m <= 100
    live = (flat > 0.0) & (_exp_neg(z) > 0.0)
    z = z[live]
    dep = th != 0.0  # theta = 0 leaves the dependence terms out, as they may be inf
    # Tiny z may overflow a Bessel term and give inf or nan: the range check refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _series(0.5 * z, m)
        bracket = (1.0 + th) * _bessel_sum(alpha, -m, z)[:, None]
        if dep.any():
            t = th[dep]
            beta = _series(z / (2.0 * _SQRT2), m)
            bracket[:, dep] -= t * 2.0 ** (m / 2.0 + 1.0) * _bessel_sum(
                _product(beta, beta), -m, _SQRT2 * z)[:, None]
            bracket[:, dep] += 2.0 * t * _bessel_sum(_product(_product(alpha, alpha), alpha[::-1]),
                                                     1 - 2 * m, 2.0 * z)[:, None]
        val = (z * alpha[-1])[:, None] * bracket  # 2 (z/2)^m / Gamma(m) = z alpha_{m-1}
    _check((val >= -1e-9) & (val <= 1.0 + 1e-9), ClosedFormRangeError,
           "closed-form survival {:.6g} (theta = {:.6g}) at y = {:.6g} escapes [0, 1] beyond slack",
           val, th, flat[live][:, None])
    surv[live] = np.clip(val, 0.0, 1.0)
    return _unsplit(surv.reshape(ys.shape + th.shape), one)


def snr_cdf_closed(model: EndToEndSnrModel, y):
    """Closed-form CDF of the end-to-end SNR (FGM, integer common m)."""
    return 1.0 - snr_survival_closed(model, y)


def snr_pdf_closed(model: EndToEndSnrModel, y):
    """Density by the Bessel sums of the module docstring.

    ``model`` is one model or a sequence that differs only in theta (module
    docstring).  A y <= 0 or nan raises ``ValueError``, a non-finite value
    ``ClosedFormRangeError``.
    """
    model, th, one = _split_theta(model)
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    _check(flat > 0.0, ValueError, "density defined for y > 0, got y = {:.6g}", flat)
    cf = ClosedFormCoefficients.build(model._closed_form_m(), model.snr_scale)
    m, z = cf.m, cf.zeta * np.sqrt(flat)
    pdf = np.zeros((len(flat), len(th)))
    live = _exp_neg(z) > 0.0  # as in snr_survival_closed
    z = z[live]
    dep = th != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _series(0.5 * z, m)
        bracket = (1.0 + th) * _bessel_sum(np.ones((1, len(z))), 0, z)[:, None]
        if dep.any():
            t = th[dep]
            bracket[:, dep] -= 4.0 * t * _bessel_sum(_series(z / (2.0 * _SQRT2), m), 0,
                                                     _SQRT2 * z)[:, None]
            bracket[:, dep] += 4.0 * t * _bessel_sum(_product(alpha, alpha[::-1]), 1 - m,
                                                     2.0 * z)[:, None]
        # (2/y) ((z/2)^m / Gamma(m))^2 = (zeta^2 / 2) alpha_{m-1}^2, free of 1/y
        val = (0.5 * cf.zeta**2 * alpha[-1] ** 2)[:, None] * bracket
    _check(np.isfinite(val), ClosedFormRangeError,
           "closed-form density {} (theta = {:.6g}) at y = {:.6g} is not finite at m = {}",
           val, th, flat[live][:, None], m)
    pdf[live] = np.maximum(val, 0.0)
    return _unsplit(pdf.reshape(ys.shape + th.shape), one)


def mean_snr_factor(m: int, theta: float) -> float:
    """E{g_sr g_rd} under FGM dependence: 1 + theta (1 - h)^2; h^2 is the FGM double sum."""
    if m < 1 or m != int(m):
        raise ValueError(f"integer m >= 1 required, got {m}")
    CopulaModel(theta)  # the copula owns the theta range
    m = int(m)
    h = sum(2.0 ** (-(m + k)) / (m * beta(m, k + 1)) for k in range(m))
    return float(1.0 + theta * (1.0 - h) ** 2)
