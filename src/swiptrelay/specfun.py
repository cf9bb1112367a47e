"""Scalar special functions used by the closed-form link metrics.

Everything here is reentrant and free of global state.  The gamma family and
the modified Bessel function of the second kind are thin wrappers over
``scipy.special`` that add domain checks and return Python floats.  scipy has
no Meijer G, so the restricted evaluator here integrates the Mellin-Barnes
contour numerically for the three shapes the capacity expressions need.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as _beta
from scipy.special import gamma, gammaincc, gammaln, kv, kve, psi
from scipy.special import loggamma as _loggamma_complex


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class UnsupportedShapeError(ValueError):
    """Meijer G shape other than the three supported instances."""


class ContourSeparationError(RuntimeError):
    """No vertical contour separates the left and right pole sets."""


class NumericalGuardError(RuntimeError):
    """A computed value failed a numerical guard; the CLI reports it with exit code 2."""


class QuadratureError(NumericalGuardError):
    """A numerical integral failed its error-estimate or finiteness guard."""


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def digamma(x: float) -> float:
    """psi(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(psi(x))


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) for positive arguments."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return float(_beta(a, b))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0.0:
        raise DomainError(f"incomplete gamma requires a > 0, got a={a}")
    if x < 0.0:
        raise DomainError(f"incomplete gamma requires x >= 0, got x={x}")
    return float(gammaincc(a, x))


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Unregularized Gamma(a, x) = integral_x^inf t^(a-1) e^(-t) dt."""
    return regularized_upper_gamma(a, x) * float(gamma(a))


def _order(v: float) -> float:
    # scipy's kv/kve return nan for subnormal orders; K_v is even and smooth
    # in v, so such an order is as good as 0.
    return 0.0 if abs(v) < sys.float_info.min else v


def bessel_k(v: float, x: float) -> float:
    """Modified Bessel function of the second kind, real order, x > 0.

    Returns +inf when the true value overflows double precision.
    """
    if x <= 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    return float(kv(_order(v), x))


def bessel_k_scaled(v: float, x: float) -> float:
    """exp(x) * K_v(x); stays representable far into the large-x tail."""
    if x <= 0.0:
        raise DomainError(f"bessel_k_scaled requires x > 0, got {x}")
    return float(kve(_order(v), x))


@dataclass(frozen=True)
class MeijerGSpec:
    """Index set of a Meijer G-function G^{m,n}_{p,q}(a; b | x)."""

    m: int
    n: int
    p: int
    q: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m > self.q or self.n > self.p:
            raise UnsupportedShapeError(
                f"need m <= q and n <= p, got (m,n,p,q)=({self.m},{self.n},{self.p},{self.q})"
            )
        if len(self.a) != self.p or len(self.b) != self.q:
            raise UnsupportedShapeError(
                f"parameter lists must have lengths p={self.p} and q={self.q}"
            )


_SUPPORTED_SHAPES = {(1, 2, 2, 2), (1, 3, 3, 2), (1, 4, 4, 2)}


def meijer_g(spec: MeijerGSpec, x: float) -> float:
    """Evaluate the restricted Meijer G-function by Mellin-Barnes quadrature.

    Only shapes (1,2,2,2), (1,3,3,2), (1,4,4,2) with b = (1, 0) are accepted;
    these cover the logarithmic capacity kernels.  The vertical contour is
    placed midway between the largest left pole and the smallest right pole.
    """
    shape = (spec.m, spec.n, spec.p, spec.q)
    if shape not in _SUPPORTED_SHAPES:
        raise UnsupportedShapeError(f"unsupported Meijer G shape {shape}")
    if spec.b != (1.0, 0.0) and spec.b != (1, 0):
        raise UnsupportedShapeError(f"lower parameters must be (1, 0), got {spec.b}")
    if x <= 0.0:
        raise DomainError(f"meijer_g requires x > 0, got {x}")

    # Left poles come from Gamma(1 + s): s = -1, -2, ...
    # Right poles come from Gamma(1 - a_j - s): s = 1 - a_j + k, k >= 0.
    left_max = -1.0
    right_min = min(1.0 - aj for aj in spec.a)
    if right_min <= left_max:
        j = int(np.argmin([1.0 - aj for aj in spec.a]))
        raise ContourSeparationError(
            f"right pole at s={right_min} (from a[{j}]={spec.a[j]}) does not clear "
            f"the left pole at s={left_max}"
        )
    c = 0.5 * (left_max + right_min)
    ln_x = math.log(x)
    a = spec.a

    def ln_integrand(s: complex) -> complex:
        val = _loggamma_complex(1.0 + s) - _loggamma_complex(1.0 - s) - s * ln_x
        for aj in a:
            val += _loggamma_complex(1.0 - aj - s)
        return val

    def integrand(t: float) -> float:
        return cmath.exp(ln_integrand(complex(c, t))).real

    # Truncation height: the integrand decays like exp(-delta*pi*t) with
    # delta = m + n - (p + q)/2 >= 1; scan until 40 nats below the peak.
    peak = ln_integrand(complex(c, 0.0)).real
    t_hi = 4.0
    while ln_integrand(complex(c, t_hi)).real > peak - 40.0 and t_hi < 4096.0:
        t_hi *= 2.0

    scale = math.exp(peak)
    val, err = quad(
        integrand,
        0.0,
        t_hi,
        epsabs=min(1e-12, 1e-14 * scale) if scale > 0 else 1e-14,
        epsrel=1e-12,
        limit=500,
    )
    if not math.isfinite(val):
        raise QuadratureError("Mellin-Barnes quadrature did not converge")
    return val / math.pi
