"""Special-function oracles: recurrences, closed forms, and integral identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from swiptrelay import specfun
from swiptrelay.specfun import (
    DomainError,
    MeijerGSpec,
    QuadratureError,
    UnsupportedShapeError,
    bessel_k,
    bessel_k_scaled,
    digamma,
    ln_gamma,
    meijer_g,
    regularized_upper_gamma,
    upper_incomplete_gamma,
)

EULER_GAMMA = 0.5772156649015328606


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
    assert ln_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.5)


def test_digamma_recurrence_fixed_points():
    for x in (0.5, 1.0, 2.0, 10.0):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=80.0))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence_property(x):
    lhs = digamma(x + 1.0) - digamma(x)
    assert lhs == pytest.approx(1.0 / x, rel=1e-11, abs=1e-13)


def test_upper_gamma_integer_series():
    # For integer a: Gamma(a, x) = (a-1)! e^{-x} sum_{k<a} x^k / k!
    for a in (1, 2, 3, 6):
        for x in (0.01, 0.5, 1.0, 4.0, 25.0):
            series = math.factorial(a - 1) * math.exp(-x) * sum(
                x**k / math.factorial(k) for k in range(a)
            )
            assert upper_incomplete_gamma(a, x) == pytest.approx(series, rel=1e-12)


def test_upper_gamma_exponential_case():
    for x in (0.1, 1.0, 10.0, 100.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_regularized_upper_gamma_limits():
    assert regularized_upper_gamma(2.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert regularized_upper_gamma(2.5, 1e4) == pytest.approx(0.0, abs=1e-15)


def test_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(1.0, -0.5)


def test_bessel_k_half_closed_form():
    # K_{1/2}(x) = sqrt(pi / (2x)) e^{-x}
    for x in (1e-4, 0.1, 1.0, 10.0, 300.0):
        exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(exact, rel=1e-10)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=-6.0, max_value=2.5),
)
@settings(max_examples=150, deadline=None)
@example(v=5e-324, log10_x=0.0)  # scipy's kv gives nan at subnormal orders
def test_bessel_k_order_symmetry(v, log10_x):
    x = 10.0**log10_x
    kp = bessel_k(v, x)
    km = bessel_k(-v, x)
    assert km == pytest.approx(kp, rel=1e-12)


def test_bessel_k_recurrence():
    # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x)
    for v in (1.0, 2.5, 7.0):
        for x in (0.5, 2.0, 20.0):
            lhs = bessel_k(v + 1.0, x)
            rhs = bessel_k(v - 1.0, x) + (2.0 * v / x) * bessel_k(v, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bessel_k_scaled_consistency():
    for v in (0.0, 1.0, 3.0):
        for x in (0.5, 5.0, 50.0):
            assert bessel_k_scaled(v, x) == pytest.approx(
                bessel_k(v, x) * math.exp(x), rel=1e-11
            )


def test_bessel_k_scaled_deep_tail_finite():
    val = bessel_k_scaled(2.0, 5000.0)
    assert 0.0 < val < 1.0


def test_bessel_k_scaled_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for v in range(-12, 13):
            for x in np.geomspace(1e-3, 5e3, 25):
                x = float(x)
                exact = mpmath.besselk(v, x) * mpmath.exp(x)
                assert bessel_k_scaled(v, x) == pytest.approx(float(exact), rel=1e-13)


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)


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
                exact = 2.0 * (eta / lam) ** (beta_ / 2.0) * bessel_k(
                    -beta_, 2.0 * math.sqrt(eta * lam)
                )
                assert val == pytest.approx(exact, rel=1e-8)


def test_meijer_g_log_identity():
    # G^{1,2}_{2,2}(x | (1,1); (1,0)) = ln(1 + x)
    spec = MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0))
    for x in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        assert meijer_g(spec, x) == pytest.approx(math.log1p(x), rel=1e-8)


def test_meijer_g_capacity_shapes_run():
    g = meijer_g(MeijerGSpec(1, 3, 3, 2, (0.0, 1.0, 1.0), (1.0, 0.0)), 2.0)
    assert math.isfinite(g) and g > 0.0
    g = meijer_g(MeijerGSpec(1, 4, 4, 2, (0.0, 0.0, 1.0, 1.0), (1.0, 0.0)), 2.0)
    assert math.isfinite(g) and g > 0.0


def test_meijer_g_large_error_estimate_raises(monkeypatch):
    monkeypatch.setattr(specfun, "quad", lambda f, a, b, **kw: (1.0, 1e-3, {}))
    spec = MeijerGSpec(1, 4, 4, 2, (0.0, 0.0, 1.0, 1.0), (1.0, 0.0))
    with pytest.raises(QuadratureError, match=r"\(1, 4, 4, 2\) at x=2"):
        meijer_g(spec, 2.0)


def test_meijer_g_spec_validation():
    with pytest.raises(UnsupportedShapeError):
        MeijerGSpec(3, 2, 2, 2, (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(UnsupportedShapeError):
        MeijerGSpec(1, 2, 2, 2, (1.0,), (1.0, 0.0))
    with pytest.raises(UnsupportedShapeError):
        meijer_g(MeijerGSpec(2, 2, 2, 2, (1.0, 1.0), (1.0, 0.0)), 1.0)


def test_meijer_g_positive_argument_required():
    spec = MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        meijer_g(spec, 0.0)
