"""The two special functions the closed forms need beyond ``scipy.special``.

Everything here is reentrant and free of global state.  ``bessel_k_scaled``
is exp(x) K_v(x) from scipy's ``kve``, with a domain check and a guard
where ``kve`` gives nan.  scipy has no Meijer G, so ``meijer_g``
integrates the Mellin-Barnes contour of the one family the capacities use,
G^{1,p}_{p,2}(a; 1, 0 | x), through ``mellin_barnes``; the RD capacity
calls that contour quadrature directly.  The gamma-family values come
straight from ``scipy.special`` at their call sites.
"""

from __future__ import annotations

import cmath
import math
import sys

from scipy.integrate import quad
from scipy.special import kve
from scipy.special import loggamma as _loggamma_complex


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NumericalGuardError(RuntimeError):
    """A computed value failed a numerical guard; the CLI reports it with exit code 2."""


class QuadratureError(NumericalGuardError):
    """A numerical integral failed its error-estimate or finiteness guard."""


def bessel_k_scaled(v: float, x: float) -> float:
    """exp(x) * K_v(x); stays representable far into the large-x tail.

    scipy's ``kve`` gives nan from x = 2**30 on; there this raises
    ``NumericalGuardError`` (the closed forms underflow to 0 long before).
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k_scaled requires x > 0, got {x}")
    # kve is nan at subnormal orders too; K_v is even and smooth in v there.
    val = float(kve(0.0 if abs(v) < sys.float_info.min else v, x))
    if math.isnan(val):
        raise NumericalGuardError(f"scipy kve is nan at v={v}, x={x:.6g}")
    return val


# Largest accepted error of a Mellin-Barnes quadrature, relative to its
# value: both QUADPACK's estimate and the rounding floor, epsilon times the
# integrand's peak (cancellation can leave the value far below the peak).
# Against mpmath the error ran at 0.05 to 0.2 of the floor; the capacity
# kernels pass from about 3e-16 to 5e19.
MEIJER_G_ROUNDOFF_TOL = 1e-6


def mellin_barnes(ln_integrand, c: float, what: str) -> float:
    """(1 / 2 pi i) times the integral of exp(ln_integrand(s)) up the line Re s = c.

    The integrand must be real on the real axis, so this is (1/pi) times the
    integral of Re exp(ln_integrand(c + it)) over t > 0, and decay at least
    like exp(-pi t).  Raises ``QuadratureError`` naming ``what`` when the
    integrand's peak at t = 0 overflows, or when the value fails
    ``MEIJER_G_ROUNDOFF_TOL``.
    """
    peak = ln_integrand(complex(c, 0.0)).real
    t_hi = 4.0  # truncation height: 40 nats below the peak
    while ln_integrand(complex(c, t_hi)).real > peak - 40.0 and t_hi < 4096.0:
        t_hi *= 2.0
    try:
        scale = math.exp(peak)
    except OverflowError:
        raise QuadratureError(f"{what}: the Mellin-Barnes integrand's peak e^{peak:.6g} overflows") from None
    # full_output keeps quad's roundoff warnings quiet; the bound below is the check instead.
    val, err, *_ = quad(lambda t: cmath.exp(ln_integrand(complex(c, t))).real, 0.0, t_hi,
                        epsabs=min(1e-12, 1e-14 * scale) if scale > 0 else 1e-14, epsrel=1e-12,
                        limit=500, full_output=1)
    if not (math.isfinite(val)
            and max(err, sys.float_info.epsilon * scale) <= MEIJER_G_ROUNDOFF_TOL * abs(val)):
        raise QuadratureError(f"{what}: Mellin-Barnes quadrature error "
                              f"{err:.2e} and peak {scale:.3g} against value {val:.6g}")
    return val / math.pi


def meijer_g(a: tuple[float, ...], x: float) -> float:
    """G^{1,p}_{p,2}(a; 1, 0 | x) with p = len(a), by ``mellin_barnes``.

    The capacity kernels use p = 3 and 4 (p = 2 with a = (1, 1) is ln(1 + x)).
    ``DomainError`` unless x > 0, 2 <= p <= 4 and every a_j < 2, so that a
    vertical contour separates the left poles of Gamma(1 + s), s = -1, -2, ...,
    from the right poles of Gamma(1 - a_j - s), s = 1 - a_j + k; it is placed
    midway between the nearest two.
    """
    if not (x > 0.0 and 2 <= len(a) <= 4 and max(a) < 2.0):
        raise DomainError(f"meijer_g needs x > 0 and 2 to 4 parameters a_j < 2, got a={a}, x={x}")
    ln_x = math.log(x)

    def ln_integrand(s: complex) -> complex:
        val = _loggamma_complex(1.0 + s) - _loggamma_complex(1.0 - s) - s * ln_x
        for aj in a:
            val += _loggamma_complex(1.0 - aj - s)
        return val

    return mellin_barnes(ln_integrand, 0.5 * (-1.0 + min(1.0 - aj for aj in a)),
                         f"Meijer G {(1, len(a), len(a), 2)} at x={x:.6g}")
