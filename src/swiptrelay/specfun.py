"""The special functions the closed forms need beyond ``scipy.special``, and
the quadrature rule every numerical integral of the package uses.

Everything here is reentrant and free of global state.  ``bessel_k_scaled``
is exp(x) K_v(x): per x, scipy's ``k0e`` and ``k1e`` (or ``kve`` at the two
lowest orders of a fractional class), then the forward recurrence for every
higher order, with a domain check and a guard where a value is nan.  The
closed forms sum whole orders only.  scipy has no Meijer G, so ``meijer_g``
integrates the Mellin-Barnes contour of the one family the capacities use,
G^{1,p}_{p,2}(a; 1, 0 | x), through ``mellin_barnes``; both capacity
closed forms call that contour quadrature directly.  ``gauss_kronrod`` is
QUADPACK's 21-point Gauss-Kronrod rule with global adaptive bisection,
vectorized over panels and over vector-valued integrands; the contour, both
capacity quadratures and the product CDF call it, each starting on panels
fitted to its integrand through ``points``.  The gamma-family values
come straight from ``scipy.special`` at their call sites.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import k0e, k1e, kve
from scipy.special import loggamma as _loggamma_complex


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NumericalGuardError(RuntimeError):
    """A computed value failed a numerical guard; the CLI reports it with exit code 2."""


class QuadratureError(NumericalGuardError):
    """A numerical integral failed its error-estimate or finiteness guard."""


def bessel_k_scaled(v, x):
    """exp(x) * K_v(x); stays representable far into the large-x tail.

    K_v is even in v, so |v| = n + f with n whole and 0 <= f < 1.  Per x,
    only the two lowest orders of each class f are evaluated: ``k0e`` and
    ``k1e`` for whole orders, ``kve`` at f and f + 1 otherwise.  Every higher
    order comes from the forward recurrence
    e^x K_{n+1} = e^x K_{n-1} + (f + n) (2 / x) e^x K_n, which is stable for
    K: against 40-digit mpmath it is within 1.1e-14 relative up to order 199,
    where ``kve`` is off by up to 1.1e-13 and overflows at e^x K_199(4.25) =
    4.4e306.  Its cost grows linearly with the order.  Each element is the
    same arithmetic as its own scalar call, so equals it bit for bit.  Near
    x = 0 a high order overflows to inf, quietly; only at x = 5e-324, where
    ``k1e`` is nan, are whole orders from 1 on refused.

    ``v`` and ``x`` broadcast: scalars give a float, arrays an array of the
    broadcast shape.  Any x <= 0 or nan raises ``DomainError``, and so does a
    non-finite v.  A nan value raises ``NumericalGuardError``: scipy's ``kve``
    gives nan from x = 2**30 on, so fractional orders are refused there,
    while whole orders keep to sqrt(pi / 2x) (1 + (4 v^2 - 1) / 8x); the
    closed forms underflow to 0 long before.  Each error names the first
    offending argument.
    """
    v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        raise DomainError(f"bessel_k_scaled requires x > 0, got {x.flat[np.argmin(x > 0.0)]}")
    if not np.isfinite(v).all():
        raise DomainError(f"bessel_k_scaled requires a finite order, "
                          f"got {v.flat[np.argmin(np.isfinite(v))]}")
    shape = np.broadcast_shapes(v.shape, x.shape)
    order, xs = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (np.abs(v), x))
    # kve is nan at subnormal orders; K_v is smooth in v there, so they count as 0.
    order = np.where(order < sys.float_info.min, 0.0, order)
    n = np.floor(order)
    frac = order - n
    # Element i of row r of the flattened rows below is order f + r at point i of x.
    flat_index = np.arange(xs.size).reshape(xs.shape)
    val = np.zeros(shape)
    with np.errstate(over="ignore"):
        two_over_x = 2.0 / xs
        for f in np.unique(frac).tolist() if frac.any() else [0.0]:
            at = frac == f
            rows = [k0e(xs), k1e(xs)] if f == 0.0 else [kve(f, xs), kve(f + 1.0, xs)]
            for k in range(1, int(n.max(where=at, initial=0.0))):
                rows.append(rows[k - 1] + (f + k) * two_over_x * rows[k])
            flat_index_f = np.where(at, n, 0.0).astype(int) * xs.size + flat_index
            picked = np.concatenate(rows, axis=None)[flat_index_f]
            val = picked if at.all() else np.where(at, picked, val)
    if np.isnan(val).any():
        i = np.argmax(np.isnan(val))
        v, x = (np.broadcast_to(a, val.shape).flat[i] for a in (v, x))
        raise NumericalGuardError(f"exp(x) K_v(x) is nan at v={v:g}, x={x:.6g}")
    return float(val) if val.ndim == 0 else val


# QUADPACK's qk21 rule on [-1, 1]: the 21 Kronrod nodes, their weights, and
# the 10-point Gauss weights, which sit on every second node (0 elsewhere).
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_KRONROD = np.array(_WK[:-1] + _WK[::-1])
_GAUSS = np.array(_WG[:-1] + _WG[::-1])
_EPS50 = 50.0 * sys.float_info.epsilon


def _error(diff, resabs, resasc):
    """QUADPACK's error estimate, raised to the rounding floor 50 eps resabs,
    and whether it sits at that floor."""
    err = np.where((resasc != 0.0) & (diff != 0.0),
                   resasc * np.minimum(1.0, 200.0 * diff / resasc) ** 1.5, diff)
    floor = np.where(resabs > sys.float_info.min / _EPS50, _EPS50 * resabs, 0.0)
    return np.maximum(err, floor), err <= floor


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """The 21-point rule on every panel [lo, hi] with one call of ``f``.

    Returns the panel integrals (shape (panels,) or (panels, *k)), each
    column's own error estimate (same shape), QUADPACK's error estimate of
    the max norm over the columns, and whether that estimate sits at the
    rounding floor 50 eps int |f|, which bisection cannot lower.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = np.asarray(f((centre[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    shape = fx.shape[1:]
    fx = fx.reshape(len(lo), len(_NODES), -1).transpose(0, 2, 1)  # (panels, k, nodes)
    width = np.abs(half)[:, None]
    resk = fx @ _KRONROD
    diff = np.abs(fx @ _GAUSS - resk) * width
    resabs = (np.abs(fx) @ _KRONROD) * width
    resasc = (np.abs(fx - 0.5 * resk[:, :, None]) @ _KRONROD) * width
    # One _error call: column 0 is the max norm over the columns, the rest each column's own.
    err, floor = _error(*(np.concatenate((r.max(axis=1, keepdims=True), r), axis=1)
                          for r in (diff, resabs, resasc)))
    val = (resk * half[:, None]).reshape(len(lo), *shape)
    return val, err[:, 1:].reshape(len(lo), *shape), err[:, 0], floor[:, 0]


def gauss_kronrod(f, a: float, b: float, epsabs: float, epsrel: float, limit: int,
                  points=()) -> tuple:
    """Integral of ``f`` over [a, b] and its error estimate, QUADPACK-style.

    ``f`` maps a 1-D array of nodes to values of shape (n,) or (n, *k); the
    value returned is a float or an array of shape k, and so is the error,
    each column's own estimate summed over the panels.  [a, b] starts split
    at the ``points`` inside it.  The panels are chosen on the max norm over
    the columns: each round bisects the panels with the largest errors, as
    many as hold the excess of the summed error over
    max(epsabs, epsrel max |value|), and evaluates all their nodes in one
    call of ``f``.  A panel whose error sits at the rounding floor is
    bisected once more, and its halves are retired if they sit there too:
    kept, but never bisected again.  ``limit`` caps the panel count; the
    caller checks the returned error.
    """
    edges = np.array([a, *sorted({p for p in points if a < p < b}), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    # f and the rule share one error state: a non-finite f gives a nan value and error, no warning.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        val, column_err, err, floor = _gk21(f, lo, hi)
        done = np.zeros(len(lo), dtype=bool)
        while True:
            total, total_err = val.sum(axis=0), float(err.sum())
            excess = total_err - max(epsabs, epsrel * float(np.abs(total).max()))
            if not excess > 0.0:  # converged, or a nan error for the caller to refuse
                break
            live = np.flatnonzero(~done)
            live = live[np.argsort(-err[live], kind="stable")]
            count = min(int(np.searchsorted(np.cumsum(err[live]), excess)) + 1, len(live),
                        limit - len(lo))
            if count <= 0:
                break
            split, keep = live[:count], np.ones(len(lo), dtype=bool)
            keep[split] = False
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
            new_val, new_column_err, new_err, new_floor = _gk21(f, new_lo, new_hi)
            lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
            val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
            column_err = np.concatenate((column_err[keep], new_column_err))
            # The extra bisection averages the integrand's own rounding over twice
            # the nodes: on Mellin-Barnes contours that cancel 400-fold it took
            # the error from 8e-13 to 1.5e-13, against 30-digit mpmath.
            done = np.concatenate((done[keep], new_floor & np.concatenate((floor[split],) * 2)))
            floor = np.concatenate((floor[keep], new_floor))
    total_err = column_err.sum(axis=0)
    return (float(total), float(total_err)) if total.ndim == 0 else (total, total_err)


# Largest accepted error of a Mellin-Barnes quadrature, relative to its
# value: both the Gauss-Kronrod error estimate and the rounding floor,
# epsilon times the integrand's peak (cancellation can leave the value far
# below the peak).  Against mpmath the error ran at 0.05 to 0.2 of the
# floor; the capacity kernels pass from about 3e-16 to 5e19.
MEIJER_G_ROUNDOFF_TOL = 1e-6


def mellin_barnes(ln_integrand, c: float, names, sizes):
    """(1 / 2 pi i) times the integrals of exp(ln_integrand(s)) up the line Re s = c.

    ``ln_integrand`` maps a complex array of shape (n,) to one of shape (n, *k),
    integrands on the same nodes named by ``names`` in C order; the value has
    shape k (a float for k = ()).  Each integrand must be real on the real
    axis, so this is (1/pi) times the integral of Re exp(ln_integrand(c + it))
    over t > 0, and decay at least like exp(-pi t).  Raises ``QuadratureError``
    naming the integrand whose peak at t = 0 overflows, or whose value fails
    ``MEIJER_G_ROUNDOFF_TOL``.  The integrands share one ``gauss_kronrod``
    call up to the highest of their truncation heights.  It integrates each
    one divided by its entry of ``sizes`` (shape k, or a scalar), the rough
    size of its value, so that the panels, chosen on the largest error over
    the integrands, give every value relative accuracy.  The absolute
    tolerance is the smallest of the integrands' own, min(1e-12, 1e-14 peak),
    divided by its size, so an integrand alone, or a group that shares one
    size, converges as it would undivided; the guards, whose verdicts the
    division does not change, report the divided error, peak and value.
    """
    # The peak at t = 0, and the truncation height: the first of 4, 8, ...,
    # 4096 where the integrand is 40 nats below the peak.
    heights = np.concatenate(([0.0], 4.0 * 2.0 ** np.arange(11)))
    scan = ln_integrand(c + 1j * heights).real
    sizes = np.broadcast_to(np.asarray(sizes, dtype=float), scan.shape[1:])
    scan = scan.reshape(len(heights), -1)
    t_hi = max(next((t for t, v in zip(heights[1:], tail) if v <= peak - 40.0), heights[-1])
               for peak, tail in zip(scan[0], scan[1:].T))
    scales = []
    for name, peak in zip(names, scan[0]):
        try:
            scales.append(math.exp(peak))
        except OverflowError:
            raise QuadratureError(f"{name}: the Mellin-Barnes integrand's peak e^{peak:.6g} overflows") from None
    # By math.log, so no digit depends on numpy's SIMD log.
    ln_sizes = np.reshape([math.log(size) for size in sizes.flat], sizes.shape)
    epsabs = min((min(1e-12, 1e-14 * scale) if scale > 0 else 1e-14) / size
                 for scale, size in zip(scales, sizes.flat))
    # The panels start split at the scan heights 4, 8, ... below t_hi, a
    # dyadic partition of the decaying integrand.
    val, err = gauss_kronrod(lambda t: np.exp(ln_integrand(c + 1j * t) - ln_sizes).real, 0.0,
                             float(t_hi), epsabs=epsabs, epsrel=1e-12, limit=500, points=heights)
    for name, peak, v, e in zip(names, np.divide(scales, sizes.ravel()), np.ravel(val),
                                np.ravel(err)):
        if not (math.isfinite(v)
                and max(e, sys.float_info.epsilon * peak) <= MEIJER_G_ROUNDOFF_TOL * abs(v)):
            raise QuadratureError(f"{name}: Mellin-Barnes quadrature error "
                                  f"{e:.2e} and peak {peak:.3g} against value {v:.6g}")
    return val * sizes / math.pi


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

    def ln_integrand(s: np.ndarray) -> np.ndarray:
        val = _loggamma_complex(1.0 + s) - _loggamma_complex(1.0 - s) - s * ln_x
        for aj in a:
            val += _loggamma_complex(1.0 - aj - s)
        return val

    return mellin_barnes(ln_integrand, 0.5 * (-1.0 + min(1.0 - aj for aj in a)),
                         [f"Meijer G {(1, len(a), len(a), 2)} at x={x:.6g}"], 1.0)
