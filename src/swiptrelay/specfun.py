"""The special functions the closed forms need beyond ``scipy.special``, and
the two quadrature rules every numerical integral of the package uses.

Everything here is reentrant and free of global state.  ``bessel_k_scaled``
is exp(x) K_v(x): per x, scipy's ``k0e`` and ``k1e`` (or ``kve`` at the two
lowest orders of a fractional class), then the forward recurrence for every
higher order, with a domain check and a guard where a value is nan.  The
closed forms sum whole orders only.  ``mellin_barnes`` sums the
trapezoidal rule on the Mellin-Barnes line Re s = -1/2, halving each
column's step until its sum settles; both capacity closed forms call it
directly.  scipy has no Meijer G, so ``meijer_g`` gives
G^{1,p}_{p,2}(a; 1, 0 | x) through it, for the adjudication's printed SR
reading.  ``gauss_kronrod`` is QUADPACK's 21-point Gauss-Kronrod rule with
global adaptive bisection, vectorized over panels and over vector-valued
integrands; both capacity quadratures and the product CDF call it, each
starting on panels fitted to its integrand through ``points``.  The
gamma-family values come straight from ``scipy.special`` at their call
sites.
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
    """QUADPACK's error estimate, raised to the rounding floor 50 eps resabs."""
    err = np.where((resasc != 0.0) & (diff != 0.0),
                   resasc * np.minimum(1.0, 200.0 * diff / resasc) ** 1.5, diff)
    floor = np.where(resabs > sys.float_info.min / _EPS50, _EPS50 * resabs, 0.0)
    return np.maximum(err, floor)


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """The 21-point rule on every panel [lo, hi] with one call of ``f``.

    Returns the panel integrals (shape (panels,) or (panels, *k)), each
    column's own error estimate (same shape) and QUADPACK's error estimate
    of the max norm over the columns.
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
    err = _error(*(np.concatenate((r.max(axis=1, keepdims=True), r), axis=1)
                   for r in (diff, resabs, resasc)))
    val = (resk * half[:, None]).reshape(len(lo), *shape)
    return val, err[:, 1:].reshape(len(lo), *shape), err[:, 0]


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
    call of ``f``.  ``limit`` caps the panel count; the caller checks the
    returned error.
    """
    edges = np.array([a, *sorted({p for p in points if a < p < b}), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    # f and the rule share one error state: a non-finite f gives a nan value and error, no warning.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        val, column_err, err = _gk21(f, lo, hi)
        while True:
            total, total_err = val.sum(axis=0), float(err.sum())
            excess = total_err - max(epsabs, epsrel * float(np.abs(total).max()))
            if not excess > 0.0:  # converged, or a nan error for the caller to refuse
                break
            order = np.argsort(-err, kind="stable")
            count = min(int(np.searchsorted(np.cumsum(err[order]), excess)) + 1, limit - len(lo))
            if count <= 0:
                break
            split, keep = order[:count], np.ones(len(lo), dtype=bool)
            keep[split] = False
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
            new_val, new_column_err, new_err = _gk21(f, new_lo, new_hi)
            lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
            val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
            column_err = np.concatenate((column_err[keep], new_column_err))
    total_err = column_err.sum(axis=0)
    return (float(total), float(total_err)) if total.ndim == 0 else (total, total_err)


# Largest accepted error of a Mellin-Barnes quadrature, relative to its
# value: both the trapezoidal rule's last change and the rounding floor,
# epsilon times the integrand's peak (cancellation can leave the value far
# below the peak).  Against the 30-digit mpmath values of the RD capacity
# table the error ran at up to 1.8 times the larger of the two (median
# 0.33).  The capacity kernels pass from about 1e-18 to 1e22, and at both
# ends lie within 2.1e-7 of 30-digit mpmath (m = 1 and 3).
MEIJER_G_ROUNDOFF_TOL = 1e-6

# Most halvings of a column's trapezoidal step after its first; a column
# that has not converged after them is refused.
_HALVINGS = 8


def _trapezoid(f, t_hi: np.ndarray, start: np.ndarray):
    """Trapezoidal sums of the columns of ``f`` on [0, t_hi] with the steps
    2^-l, each column from its own level l = ``start`` on.

    ``f(t, cols)`` maps a 1-D array of nodes and an index array of columns
    to their values, of shape (nodes, cols).  A column takes the nodes of a
    level up to its own t_hi (its integrand is negligible beyond), summed in
    order of t, so its sums, and its value, are those of a call for it
    alone.  Each halving evaluates only the new midpoints, and only for the
    columns still moving.  A column stops once its sum moves by at most
    1e-12 of itself, or by at most its rounding floor 50 eps h sum |f|; its
    value is the finer sum and its error that last change.  A column still
    moving ``_HALVINGS`` levels after its start gets the error inf.
    """
    level = int(start.min())
    h = 2.0 ** -level
    # f and the rule share one error state, as in gauss_kronrod.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t = h * np.arange(math.ceil(t_hi.max() / h) + 1)
        fx = np.where(t[:, None] <= t_hi, f(t, np.arange(len(t_hi))), 0.0)
        fx[0] *= 0.5
        val = h * np.cumsum(fx, axis=0)[-1]
        err, done = np.full(val.shape, np.inf), np.zeros(val.shape, dtype=bool)
        while not done.all() and level < start.max() + _HALVINGS:
            level, h = level + 1, 0.5 * h
            mid = h * np.arange(1, 2 * len(fx) - 1, 2)
            # A column that has stopped keeps its value: its midpoints stay 0.
            live = np.flatnonzero(~done & (level <= start + _HALVINGS))
            both = np.zeros((2 * len(fx) - 1, fx.shape[1]))
            both[0::2] = fx
            both[1::2, live] = np.where(mid[:, None] <= t_hi[live], f(mid, live), 0.0)
            fx = both
            total = h * np.cumsum(fx, axis=0)[-1]
            floor = _EPS50 * h * np.cumsum(np.abs(fx), axis=0)[-1]
            step = (start < level) & (level <= start + _HALVINGS) & ~done
            err = np.where(step, np.abs(total - val), err)
            val = np.where(step | (start == level), total, val)
            done |= step & (err <= np.maximum(1e-12 * np.abs(total), floor))
    return val, np.where(done, err, np.inf)


def mellin_barnes(ln_kernel, ln_x, names):
    """(1 / 2 pi i) times the integrals of exp(ln_kernel(s)) x^-s up the line Re s = c = -1/2.

    ``ln_x`` holds ln x, one per integrand (any shape; the value has its
    shape, a float for a scalar), and ``ln_kernel`` maps a complex array of
    shape (n,) to the kernels on those nodes, of shape (n, *ln_x.shape),
    the integrands named by ``names`` in C order.  Each integrand must be
    real on the real axis and analytic in a strip about the line, so this is
    (1/pi) times the integral of Re exp(ln_kernel(c + it) - (c + it) ln x)
    over t > 0, and decay at least like exp(-pi t).

    Each integrand is integrated divided by its peak at t = 0, with x^-c in
    that peak: so its nodes sum terms of size 1 or less, and the rounding of
    a large c ln x does not enter the sum.  A truncation scan sets its t_hi,
    and ``_trapezoid`` its sum, which converges exponentially in the step h
    (Trefethen and Weideman, SIAM Rev. 56, 2014); its first step is the
    first 2^-l with eight nodes in the shortest period of its phase,
    e^(-it ln x) and the log-gammas', that the scan sees over [0, t_hi].
    So each value is the one a call for that integrand alone gives.  Raises
    ``QuadratureError`` naming the integrand whose peak overflows, or whose
    value fails ``MEIJER_G_ROUNDOFF_TOL``: its last change, or the error inf
    where it did not converge, and its rounding floor, epsilon times the peak.
    """
    ln_x, c = np.asarray(ln_x, dtype=float), -0.5  # c lies between poles at s <= -1 and s >= 0
    # The truncation height: the first of 4 * 2^(k/4), k = 0 .. 40 (4 to 4096)
    # where the kernel is 40 nats below its value at t = 0 (x^-s has modulus x^-c).
    heights = np.concatenate(([0.0], 4.0 * 2.0 ** (0.25 * np.arange(41))))
    scan = ln_kernel(c + 1j * heights).reshape(len(heights), -1)
    peak = scan[0].real
    below = scan[1:].real <= peak - 40.0
    t_hi = np.where(below.any(axis=0), heights[1:][below.argmax(axis=0)], heights[-1])
    scales = []
    for name, ln_peak in zip(names, peak - c * ln_x.ravel()):
        try:
            scales.append(math.exp(ln_peak))
        except OverflowError:
            raise QuadratureError(f"{name}: the Mellin-Barnes integrand's peak e^{ln_peak:.6g} overflows") from None
    # The steepest phase slope between scan heights up to each t_hi.
    slopes = np.abs(np.diff(scan.imag, axis=0) / np.diff(heights)[:, None] - ln_x.ravel())
    slope = np.where(heights[1:, None] <= t_hi, slopes, 0.0).max(axis=0)
    start = np.maximum(np.ceil(np.log2(4.0 * slope / math.pi)), 4.0)
    val, err = _trapezoid(lambda t, cols: np.exp(ln_kernel(c + 1j * t).reshape(len(t), -1)[:, cols]
                                                 - peak[cols] - 1j * np.multiply.outer(t, ln_x.ravel()[cols])).real,
                          t_hi, start)
    for name, scale, v, e in zip(names, scales, val, err):
        if not (math.isfinite(v) and max(e, sys.float_info.epsilon) <= MEIJER_G_ROUNDOFF_TOL * abs(v)):
            raise QuadratureError(f"{name}: Mellin-Barnes quadrature error {e:.2e} against "
                                  f"value {v:.6g}, both relative to the peak {scale:.3g}")
    return (val * scales / math.pi).reshape(ln_x.shape)[()]


def meijer_g(a: tuple[float, ...], x: float) -> float:
    """G^{1,p}_{p,2}(a; 1, 0 | x) with p = len(a), by ``mellin_barnes``.

    ``adjudicate_closed_forms`` takes the printed SR reading from it, with
    p = 3 (p = 2 with a = (1, 1) is ln(1 + x)).  ``DomainError`` unless
    x > 0, 2 <= p <= 4 and every a_j <= 1, so that the poles of
    Gamma(1 - a_j - s), s = 1 - a_j + k >= 0, lie right of the contour's
    line Re s = -1/2 and those of Gamma(1 + s), s = -1, -2, ..., left of it.
    """
    if not (x > 0.0 and 2 <= len(a) <= 4 and max(a) <= 1.0):
        raise DomainError(f"meijer_g needs x > 0 and 2 to 4 parameters a_j <= 1, got a={a}, x={x}")

    def ln_kernel(s: np.ndarray) -> np.ndarray:
        val = _loggamma_complex(1.0 + s) - _loggamma_complex(1.0 - s)
        for aj in a:
            val += _loggamma_complex(1.0 - aj - s)
        return val

    return float(mellin_barnes(ln_kernel, math.log(x),
                               [f"Meijer G {(1, len(a), len(a), 2)} at x={x:.6g}"]))
