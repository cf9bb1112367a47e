"""Special-function oracles: recurrences, closed forms, and integral identities.

The Gauss-Kronrod rule every quadrature of the package uses is checked on
its own: polynomial exactness, vector output, breakpoints against scipy's
``quad``, and an exhausted panel limit that its callers must refuse.

The gamma-family checks pin the ``scipy.special`` values that the library
calls directly (``gammaln`` in the capacity and coefficient prefactors,
``psi`` in the asymptotic SR capacity, ``gammaincc`` in the acceptance
suite's relay-CDF oracle).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammaincc, gammaln, kv, psi

from swiptrelay import product_dist, specfun
from swiptrelay.specfun import (
    DomainError,
    NumericalGuardError,
    QuadratureError,
    bessel_k_scaled,
    gauss_kronrod,
    meijer_g,
)
from swiptrelay.swipt_metrics import ergodic_capacity_rd, ergodic_capacity_sr

EULER_GAMMA = 0.5772156649015328606


def test_ln_gamma_known_values():
    assert gammaln(1.0) == pytest.approx(0.0, abs=1e-15)
    assert gammaln(2.0) == pytest.approx(0.0, abs=1e-15)
    assert gammaln(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
    assert gammaln(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-13)


def test_digamma_recurrence_fixed_points():
    for x in (0.5, 1.0, 2.0, 10.0):
        assert psi(x + 1.0) - psi(x) == pytest.approx(1.0 / x, rel=1e-12)


def test_digamma_known_values():
    assert psi(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert psi(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=80.0))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence_property(x):
    lhs = psi(x + 1.0) - psi(x)
    assert lhs == pytest.approx(1.0 / x, rel=1e-11, abs=1e-13)


def test_upper_gamma_integer_series():
    # For integer a: Gamma(a, x) = (a-1)! e^{-x} sum_{k<a} x^k / k!
    for a in (1, 2, 3, 6):
        for x in (0.01, 0.5, 1.0, 4.0, 25.0):
            series = math.factorial(a - 1) * math.exp(-x) * sum(
                x**k / math.factorial(k) for k in range(a)
            )
            assert gammaincc(a, x) * gamma(a) == pytest.approx(series, rel=1e-12)


def test_upper_gamma_exponential_case():
    for x in (0.1, 1.0, 10.0, 100.0):
        assert gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_regularized_upper_gamma_limits():
    assert gammaincc(2.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert gammaincc(2.5, 1e4) == pytest.approx(0.0, abs=1e-15)


def test_bessel_k_half_closed_form():
    # K_{1/2}(x) = sqrt(pi / (2x)) e^{-x}
    for x in (1e-4, 0.1, 1.0, 10.0, 300.0):
        exact = math.sqrt(math.pi / (2.0 * x))
        assert bessel_k_scaled(0.5, x) == pytest.approx(exact, rel=1e-10)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=-6.0, max_value=2.5),
)
@settings(max_examples=150, deadline=None)
@example(v=5e-324, log10_x=0.0)  # scipy's kv gives nan at subnormal orders
def test_bessel_k_order_symmetry(v, log10_x):
    x = 10.0**log10_x
    kp = bessel_k_scaled(v, x)
    km = bessel_k_scaled(-v, x)
    assert km == pytest.approx(kp, rel=1e-12)


def test_bessel_k_recurrence():
    # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x)
    for v in (1.0, 2.5, 7.0):
        for x in (0.5, 2.0, 20.0):
            lhs = bessel_k_scaled(v + 1.0, x)
            rhs = bessel_k_scaled(v - 1.0, x) + (2.0 * v / x) * bessel_k_scaled(v, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bessel_k_scaled_consistency():
    for v in (0.0, 1.0, 3.0):
        for x in (0.5, 5.0, 50.0):
            assert bessel_k_scaled(v, x) == pytest.approx(
                kv(v, x) * math.exp(x), rel=1e-11
            )


def test_bessel_k_scaled_deep_tail_finite():
    val = bessel_k_scaled(2.0, 5000.0)
    assert 0.0 < val < 1.0


def test_bessel_k_scaled_matches_mpmath():
    # Every order to 12 and a spread up to 199, the highest the closed forms
    # reach (m = 100), so the forward recurrence is checked over its whole run.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for v in (*range(13), 20, 49, 99, 150, 199):
            for x in np.geomspace(1e-3, 5e3, 25):
                x = float(x)
                exact = mpmath.besselk(v, x) * mpmath.exp(x)
                if exact > sys.float_info.max:
                    continue
                for order in (v, -v):
                    assert bessel_k_scaled(order, x) == pytest.approx(float(exact), rel=1e-13)


def test_bessel_k_recurrence_overflows_quietly_near_zero():
    # Tier-1 turns a RuntimeWarning into an error: the overflow must stay quiet.
    grid = bessel_k_scaled(np.arange(200)[:, None], np.array([1e-3, 1e-310]))
    assert np.isfinite(grid[0]).all() and (grid[-1] == math.inf).all()


def test_bessel_k_domain():
    for x in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            bessel_k_scaled(1.0, x)
    for v in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite order"):
            bessel_k_scaled(v, 1.0)
    # scipy's kve is nan from x = 2**30 on; a fractional order, which starts
    # from kve, is refused there, not passed on.
    assert math.isfinite(bessel_k_scaled(3.5, 2.0**30 - 1.0))
    for x in (2.0**30, 1e20, math.inf):
        with pytest.raises(NumericalGuardError, match="nan"):
            bessel_k_scaled(3.5, x)
    # Whole orders start from k0e and k1e, which hold there: the leading
    # asymptotics sqrt(pi / 2x) (1 + (4 v^2 - 1) / 8x).
    for v in (0, 1, 3, 12):
        for x in (2.0**30, 1e20, 1e300, math.inf):
            expected = math.sqrt(math.pi / (2.0 * x)) * (1.0 + (4.0 * v * v - 1.0) / (8.0 * x))
            assert bessel_k_scaled(v, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_bessel_k_scaled_broadcasts_and_names_the_first_bad_argument():
    orders, xs = np.arange(-3, 4), np.geomspace(1e-2, 1e3, 9)
    grid = bessel_k_scaled(orders[:, None], xs)
    assert grid.shape == (7, 9)
    assert grid.tolist() == [[bessel_k_scaled(v, x) for x in xs] for v in orders.tolist()]
    # Whole and fractional orders in one call: each element is its scalar call.
    mixed = np.array([-2.5, -1.0, 0.0, 0.25, 3.0, 4.25])
    assert bessel_k_scaled(mixed, xs[:, None]).tolist() == [
        [bessel_k_scaled(v, x) for v in mixed.tolist()] for x in xs.tolist()]
    with pytest.raises(DomainError, match="got -1.0"):
        bessel_k_scaled(orders[:, None], np.array([1.0, -1.0, 0.0]))
    with pytest.raises(NumericalGuardError, match="nan at v=-2.5, x=1.07374e"):
        bessel_k_scaled(orders[:, None] + 0.5, np.array([1.0, 2.0**30, 1e20]))


def test_bessel_integral_identity_grid():
    # int_0^inf x^{b-1} exp(-(lam x + eta/x)) dx = 2 (eta/lam)^{b/2} K_{-b}(2 sqrt(eta lam))
    for beta_ in (0.5, 1.0, 2.0, 3.0):
        for lam in (0.5, 1.0, 2.0):
            for eta in (0.5, 1.0, 2.0):
                val, err = quad(
                    lambda x: x ** (beta_ - 1.0) * math.exp(-(lam * x + eta / x)),
                    0.0,
                    np.inf,
                    epsabs=1e-13,
                    epsrel=1e-12,
                    limit=300,
                )
                z = 2.0 * math.sqrt(eta * lam)
                exact = 2.0 * (eta / lam) ** (beta_ / 2.0) * bessel_k_scaled(-beta_, z) * math.exp(-z)
                assert val == pytest.approx(exact, rel=1e-8)


def test_meijer_g_log_identity():
    # G^{1,2}_{2,2}(x | (1,1); (1,0)) = ln(1 + x)
    for x in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        assert meijer_g((1.0, 1.0), x) == pytest.approx(math.log1p(x), rel=1e-8)


def test_meijer_g_capacity_shapes_run():
    g = meijer_g((0.0, 1.0, 1.0), 2.0)
    assert math.isfinite(g) and g > 0.0
    g = meijer_g((0.0, 0.0, 1.0, 1.0), 2.0)
    assert math.isfinite(g) and g > 0.0


def test_meijer_g_large_error_estimate_raises(monkeypatch):
    # The contour's trapezoidal rule reports a change of 1e-3 against a value of 1.
    monkeypatch.setattr(specfun, "_trapezoid", lambda f, t_hi, start: (np.ones(1), np.full(1, 1e-3)))
    with pytest.raises(QuadratureError, match=r"\(1, 4, 4, 2\) at x=2"):
        meijer_g((0.0, 0.0, 1.0, 1.0), 2.0)


@pytest.mark.parametrize("gamma_hat_r", [1e-4, 1e-3])
def test_meijer_g_peak_overflow_raises(gamma_hat_r):
    # The printed SR reading a1 = 1 - m/gamma_hat_r (here m = 1) puts the
    # contour's peak past double range.
    with pytest.raises(QuadratureError, match=r"\(1, 3, 3, 2\) at x=0\.00"):
        meijer_g((1.0 - 1.0 / gamma_hat_r, 1.0, 1.0), gamma_hat_r)


@pytest.mark.parametrize("x", [1e-25, 1e30, 1e40])
def test_meijer_g_cancellation_raises(x):
    # The peak grows like x^(1/2) or x^(-1/2) while ln(1 + x) does not; past
    # the rounding floor the quadrature returned noise (-20698 at 1e40).
    with pytest.raises(QuadratureError, match=r"\(1, 2, 2, 2\) at x=1e[+-]\d+: .* peak"):
        meijer_g((1.0, 1.0), x)


def test_meijer_g_spec_validation():
    # Only G^{1,p}_{p,2}(a; 1, 0 | x) with 2 <= p <= 4, and every a_j <= 1 so
    # that the line Re s = -1/2 separates the left and right poles.
    for a in ((1.0,), (1.0, 1.0, 1.0, 1.0, 1.0), (2.0, 1.0), (0.0, 1.0, 3.5), (1.5, 1.0)):
        with pytest.raises(DomainError):
            meijer_g(a, 1.0)


def test_meijer_g_positive_argument_required():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            meijer_g((1.0, 1.0), x)


@pytest.mark.parametrize("degree", range(32))
def test_gauss_kronrod_single_panel_is_exact_for_polynomials(degree):
    # The 21-point Kronrod rule integrates degree 3 * 10 + 1 = 31 exactly;
    # limit = 1 allows no bisection.
    poly = np.polynomial.Polynomial(np.random.default_rng(degree).normal(size=degree + 1))
    exact = poly.integ()(1.7) - poly.integ()(-0.3)
    val, _ = gauss_kronrod(poly, -0.3, 1.7, epsabs=0.0, epsrel=0.0, limit=1)
    assert val == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_gauss_kronrod_vector_output():
    rates = np.array([0.5, 1.0, 2.0, 4.0])
    val, err = gauss_kronrod(lambda x: np.exp(-np.outer(x, rates)), 0.0, 3.0,
                             epsabs=1e-14, epsrel=1e-14, limit=50)
    # The error is each column's own estimate.
    assert val.shape == err.shape == (4,) and np.all(err <= 1e-13)
    assert val == pytest.approx(-np.expm1(-3.0 * rates) / rates, rel=1e-14, abs=0.0)
    scalar, scalar_err = gauss_kronrod(lambda x: np.exp(-x), 0.0, 3.0, epsabs=1e-14, epsrel=1e-14,
                                       limit=50)
    assert isinstance(scalar, float) and scalar == pytest.approx(val[1], rel=1e-15, abs=0.0)
    assert isinstance(scalar_err, float)


def test_gauss_kronrod_breakpoint_at_kink():
    kink = 1.0 / 3.0
    oracle, _ = quad(lambda x: math.exp(-abs(x - kink)) * math.cos(3.0 * x), 0.0, 2.0,
                     points=[kink], epsabs=1e-13, epsrel=1e-13)
    val, err = gauss_kronrod(lambda x: np.exp(-np.abs(x - kink)) * np.cos(3.0 * x), 0.0, 2.0,
                             epsabs=1e-13, epsrel=1e-13, limit=50, points=(kink, 5.0))
    assert err <= 1e-13
    assert val == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_gauss_kronrod_exhausted_limit_returns_its_error():
    # sqrt|x - 0.3| needs many bisections at its cusp; three panels leave a large error.
    val, err = gauss_kronrod(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                             epsabs=1e-12, epsrel=1e-12, limit=3)
    exact = (0.3**1.5 + 0.7**1.5) / 1.5
    assert 1e-3 < err and abs(val - exact) <= err


CAPPED_CALLERS = {
    "meijer_g": (lambda: meijer_g((0.0, 1.0, 1.0), 2.0), "Mellin-Barnes quadrature error"),
    "capacity_sr": (lambda: ergodic_capacity_sr(123.7, 2), "SR capacity quadrature error"),
    "capacity_rd": (lambda: ergodic_capacity_rd(6.5625, 2, 0.5), "RD capacity quadrature error"),
    "product_cdf": (lambda: product_dist.product_cdf_general(6.5625, 2, 0.5, np.array([0.1, 1.0, 10.0])),
        "product CDF quadrature error"),
}


@pytest.mark.parametrize("caller", sorted(CAPPED_CALLERS))
def test_gauss_kronrod_limit_exhausted_makes_caller_raise(monkeypatch, caller):
    # With at most two panels no integral of the package reaches its
    # tolerance; each caller must refuse the returned error estimate.
    # The starting partitions the callers pass would already hold more
    # panels than that, so the cap drops them too.  The contour's
    # trapezoidal rule converges on the first halving of its step here;
    # allowed none, it has no change to stop on, and meijer_g refuses that.
    def capped(f, a, b, epsabs, epsrel, limit, points=()):
        return gauss_kronrod(f, a, b, epsabs, epsrel, min(limit, 2), points=())

    monkeypatch.setattr(specfun, "gauss_kronrod", capped)
    monkeypatch.setattr(product_dist, "gauss_kronrod", capped)
    monkeypatch.setattr(specfun, "_HALVINGS", 0)
    run, message = CAPPED_CALLERS[caller]
    with pytest.raises(QuadratureError, match=message):
        run()
