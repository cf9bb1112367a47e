"""The two special functions the closed forms need beyond ``scipy.special``.

Everything here is reentrant and free of global state.  ``bessel_k_scaled``
is exp(x) K_v(x) from scipy's ``kve``, with a domain check and a guard
where ``kve`` gives nan.  scipy has no Meijer G, so ``meijer_g``
integrates the Mellin-Barnes contour of the one family the capacities use,
G^{1,p}_{p,2}(a; 1, 0 | x).  The gamma-family values come straight from
``scipy.special`` at their call sites.
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


# Largest accepted error estimate of the Mellin-Barnes quadrature, relative
# to the larger of the value and the integrand's peak: cancellation can leave
# the value far below the peak, and the roundoff then scales with the peak.
# The capacity kernels stay below 3e-13 for gamma_hat_d from 1e-20 to 1e12.
MEIJER_G_REL_TOL = 1e-8
# Largest accepted rounding floor, epsilon times the peak, relative to the
# value.  Against mpmath the error ran at 0.05 to 0.2 of this floor for x
# from 1e-20 to 1e40; the capacity kernels pass it from about 1e-18 to 1e22.
MEIJER_G_ROUNDOFF_TOL = 1e-6


def meijer_g(a: tuple[float, ...], x: float) -> float:
    """G^{1,p}_{p,2}(a; 1, 0 | x) with p = len(a), by Mellin-Barnes quadrature.

    The capacity kernels use p = 3 and 4 (p = 2 with a = (1, 1) is ln(1 + x)).
    ``DomainError`` unless x > 0, 2 <= p <= 4 and every a_j < 2, so that a
    vertical contour separates the poles; it is placed midway between the
    largest left pole and the smallest right pole.  Raises ``QuadratureError``
    naming the shape and x when the integrand's peak overflows, or when the
    value fails ``MEIJER_G_REL_TOL`` or ``MEIJER_G_ROUNDOFF_TOL``.
    """
    if not (x > 0.0 and 2 <= len(a) <= 4 and max(a) < 2.0):
        raise DomainError(f"meijer_g needs x > 0 and 2 to 4 parameters a_j < 2, got a={a}, x={x}")
    shape = (1, len(a), len(a), 2)

    # Left poles come from Gamma(1 + s): s = -1, -2, ...
    # Right poles come from Gamma(1 - a_j - s): s = 1 - a_j + k, k >= 0.
    c = 0.5 * (-1.0 + min(1.0 - aj for aj in a))
    ln_x = math.log(x)

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

    try:
        scale = math.exp(peak)
    except OverflowError:
        raise QuadratureError(f"Meijer G {shape} at x={x:.6g}: the Mellin-Barnes integrand's "
                              f"peak e^{peak:.6g} overflows") from None
    # full_output keeps quad's roundoff warnings quiet; the bounds below are
    # the check instead.
    val, err, *_ = quad(
        integrand,
        0.0,
        t_hi,
        epsabs=min(1e-12, 1e-14 * scale) if scale > 0 else 1e-14,
        epsrel=1e-12,
        limit=500,
        full_output=1,
    )
    if not (math.isfinite(val) and err <= MEIJER_G_REL_TOL * max(abs(val), scale)
            and sys.float_info.epsilon * scale <= MEIJER_G_ROUNDOFF_TOL * abs(val)):
        raise QuadratureError(f"Meijer G {shape} at x={x:.6g}: Mellin-Barnes quadrature error "
                              f"{err:.2e} and peak {scale:.3g} against value {val:.6g}")
    return val / math.pi
