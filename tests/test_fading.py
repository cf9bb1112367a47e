"""Fading-power marginal: CDF series agreement, quantile inversion, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from swiptrelay.fading import NakagamiPower, power_cdf, power_pdf, power_quantile


def power_cdf_series(d: NakagamiPower, g):
    """Integer-m oracle: 1 - e^{-rg} sum_{k<m} (rg)^k / k!."""
    x = d.rate * np.asarray(g, dtype=float)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, int(d.m)):
        term = term * x / k
        total = total + term
    return -np.expm1(-x + np.log(total))


def test_constructor_validation():
    with pytest.raises(ValueError):
        NakagamiPower(0.25)
    with pytest.raises(ValueError):
        NakagamiPower(1.0, mean_power=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["m", "mean_power"])
def test_constructor_refuses_non_finite(field, bad):
    # nan passes a plain "m < 0.5" check and makes power_cdf return nan.
    kwargs = {"m": 2.0, "mean_power": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        NakagamiPower(**kwargs)


def test_rate_property():
    assert NakagamiPower(2.0, 4.0).rate == pytest.approx(0.5)


def test_rayleigh_special_case():
    d = NakagamiPower(1.0, 1.0)
    g = np.array([0.1, 1.0, 3.0])
    assert np.allclose(power_cdf(d, g), 1.0 - np.exp(-g), rtol=1e-14)
    assert np.allclose(power_pdf(d, g), np.exp(-g), rtol=1e-14)


def test_series_vs_general_cdf():
    grid = np.geomspace(1e-3, 1e2, 60)
    for m in (1, 2, 3, 4):
        d = NakagamiPower(float(m), 1.0)
        assert np.max(np.abs(power_cdf(d, grid) - power_cdf_series(d, grid))) < 1e-12


def test_cdf_at_overflowing_argument_is_quiet():
    # rate * g overflows to inf; the CDF is its limit 1, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_cdf(NakagamiPower(2.0, 1e-300), 1e300) == 1.0


def test_pdf_integrates_to_cdf():
    d = NakagamiPower(2.5, 1.3)
    for g in (0.2, 1.0, 4.0):
        val, _ = quad(lambda t: power_pdf(d, t), 0.0, g, epsabs=1e-12)
        assert val == pytest.approx(power_cdf(d, g), abs=1e-10)


def test_pdf_at_zero_limits():
    assert power_pdf(NakagamiPower(2.0), 0.0) == 0.0
    assert power_pdf(NakagamiPower(1.0), 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        power_pdf(NakagamiPower(0.5), 0.0)


def test_quantile_round_trip_fixed():
    ps = np.array([0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    for m in (0.5, 1.0, 2.0, 3.0, 4.5):
        d = NakagamiPower(m, 1.0)
        back = power_cdf(d, power_quantile(d, ps))
        assert np.max(np.abs(back - ps)) < 1e-10


@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=1e-8, max_value=1.0 - 1e-12),
)
@settings(max_examples=200, deadline=None)
def test_quantile_round_trip_property(m, p):
    d = NakagamiPower(m, 2.0)
    assert power_cdf(d, power_quantile(d, p)) == pytest.approx(p, abs=1e-9)


def test_quantile_edge_cases():
    d = NakagamiPower(3.0, 1.0)
    assert power_quantile(d, 0.0) == 0.0
    with pytest.raises(ValueError):
        power_quantile(d, 1.0)
    with pytest.raises(ValueError):
        power_quantile(d, -0.1)
    with pytest.raises(ValueError):
        power_quantile(d, math.nan)


@pytest.mark.parametrize("m", [0.5, 2.5, 12.0])
def test_quantile_matches_mpmath(m):
    mpmath = pytest.importorskip("mpmath")
    ps = [1e-300, 5e-320, 1e-100, 1e-30, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12]
    d = NakagamiPower(m, 0.8)
    tiny = np.finfo(float).tiny
    with mpmath.workdps(50):
        mp_m, scale = mpmath.mpf(m), mpmath.mpf(d.mean_power) / m

        def cdf(x):
            return mpmath.gammainc(mp_m, 0, x / scale, regularized=True)

        for p in ps:
            x = power_quantile(d, p)
            mp_p = mpmath.mpf(p)
            if cdf(mpmath.mpf(tiny)) >= mp_p:
                # The true quantile is not a normal double.
                assert 0.0 <= x <= tiny
                continue
            # Newton on log F(x) = log p from the double result, in 50 digits.
            t = mpmath.mpf(x)
            for _ in range(4):
                dens = (t / scale) ** (mp_m - 1) * mpmath.exp(-t / scale) / (
                    scale * mpmath.gamma(mp_m))
                t -= (mpmath.log(cdf(t)) - mpmath.log(mp_p)) * cdf(t) / dens
            assert abs(x - t) <= 1e-12 * t


def test_quantile_monotone():
    d = NakagamiPower(2.0, 1.0)
    ps = np.linspace(1e-6, 1.0 - 1e-6, 500)
    q = power_quantile(d, ps)
    assert np.all(np.diff(q) > 0.0)


def test_inverse_transform_sample_mean():
    rng = np.random.Generator(np.random.Philox(key=23))
    n = 1_000_000
    for m, gbar in ((1.0, 1.0), (3.0, 2.5)):
        d = NakagamiPower(m, gbar)
        g = power_quantile(d, rng.random(n))
        stderr = g.std(ddof=1) / math.sqrt(n)
        assert abs(g.mean() - gbar) < 4.0 * stderr
