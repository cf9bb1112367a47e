"""Copula invariants: bounds, margins, 2-increasingness, inversion, sampling laws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad
from scipy.stats import spearmanr

from swiptrelay.copula import (
    CopulaModel,
    conditional_cdf,
    conditional_quantile,
    copula_cdf,
    copula_density,
    fgm_copula,
    product_copula,
    sample_pair,
    survival_copula_cdf,
)

THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
GRID = np.linspace(0.0, 1.0, 101)


def test_theta_domain():
    with pytest.raises(ValueError):
        fgm_copula(1.5)
    with pytest.raises(ValueError):
        fgm_copula(-1.0001)


def test_product_copula_is_independence():
    u = np.linspace(0.01, 0.99, 13)
    assert np.allclose(copula_cdf(product_copula(), u, u[::-1]), u * u[::-1])
    assert np.allclose(copula_density(product_copula(), u, u[::-1]), 1.0)


def test_cdf_point_value():
    # C(0.5, 0.5) = 0.25 (1 + theta / 4)
    for theta in THETAS:
        assert copula_cdf(fgm_copula(theta), 0.5, 0.5) == pytest.approx(
            0.25 * (1.0 + theta / 4.0), abs=1e-15
        )


def test_density_point_value_and_finite_difference():
    c = fgm_copula(0.5)
    assert copula_density(c, 0.25, 0.75) == pytest.approx(0.875, abs=1e-12)
    h = 1e-5
    u1, u2 = 0.25, 0.75
    mixed = (
        copula_cdf(c, u1 + h, u2 + h)
        - copula_cdf(c, u1 + h, u2 - h)
        - copula_cdf(c, u1 - h, u2 + h)
        + copula_cdf(c, u1 - h, u2 - h)
    ) / (4.0 * h * h)
    assert mixed == pytest.approx(0.875, abs=1e-6)


def test_frechet_bounds_grid():
    uu, vv = np.meshgrid(GRID, GRID)
    lower = np.maximum(uu + vv - 1.0, 0.0)
    upper = np.minimum(uu, vv)
    for theta in THETAS:
        c = copula_cdf(fgm_copula(theta), uu, vv)
        assert np.all(c >= lower - 1e-12)
        assert np.all(c <= upper + 1e-12)


def test_grounded_and_uniform_margins():
    for theta in THETAS:
        c = fgm_copula(theta)
        assert np.allclose(copula_cdf(c, 0.0, GRID), 0.0)
        assert np.allclose(copula_cdf(c, GRID, 0.0), 0.0)
        assert np.allclose(copula_cdf(c, 1.0, GRID), GRID, atol=1e-15)
        assert np.allclose(copula_cdf(c, GRID, 1.0), GRID, atol=1e-15)


def test_two_increasing_rectangles():
    uu, vv = np.meshgrid(GRID, GRID)
    for theta in THETAS:
        c = copula_cdf(fgm_copula(theta), uu, vv)
        volume = c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]
        assert np.all(volume >= -1e-12)


def test_density_normalizes():
    for theta in THETAS:
        c = fgm_copula(theta)
        val, err = dblquad(
            lambda u2, u1: copula_density(c, u1, u2), 0.0, 1.0, 0.0, 1.0,
            epsabs=1e-11,
        )
        assert val == pytest.approx(1.0, abs=1e-9)


def test_dependence_ordering():
    interior = GRID[1:-1]
    uu, vv = np.meshgrid(interior, interior)
    indep = uu * vv
    for theta in (0.5, 1.0):
        assert np.all(copula_cdf(fgm_copula(theta), uu, vv) >= indep - 1e-15)
        assert np.all(copula_cdf(fgm_copula(-theta), uu, vv) <= indep + 1e-15)


def test_conditional_round_trip_grid():
    interior = GRID[1:-1]
    uu, vv = np.meshgrid(interior, interior)
    for theta in THETAS:
        c = fgm_copula(theta)
        t = conditional_cdf(c, vv, uu)
        back = conditional_quantile(c, t, uu)
        assert np.max(np.abs(back - vv)) < 1e-12


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_conditional_round_trip_property(theta, u1, u2):
    c = fgm_copula(theta)
    t = conditional_cdf(c, u2, u1)
    assert conditional_quantile(c, t, u1) == pytest.approx(u2, abs=1e-10)


def test_conditional_cdf_is_a_cdf_in_u2():
    c = fgm_copula(-1.0)
    u2 = np.linspace(0.0, 1.0, 200)
    vals = conditional_cdf(c, u2, 0.123)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(vals) >= -1e-15)


def test_survival_copula_matches_same_family():
    # The FGM family is radially symmetric: the survival copula is the copula.
    u = np.linspace(0.0, 1.0, 51)
    uu, vv = np.meshgrid(u, u)
    for theta in THETAS:
        c = fgm_copula(theta)
        assert np.allclose(
            survival_copula_cdf(c, uu, vv), copula_cdf(c, uu, vv), atol=1e-14
        )


def test_sampling_independence_correlation():
    rng = np.random.Generator(np.random.Philox(key=7))
    u1, u2 = sample_pair(fgm_copula(0.0), rng, size=1_000_000)
    corr = np.corrcoef(u1, u2)[0, 1]
    assert abs(corr) < 3e-3


def test_sampling_spearman_rho():
    # FGM rank correlation is theta / 3.
    rng = np.random.Generator(np.random.Philox(key=11))
    n = 1_000_000
    u1, u2 = sample_pair(fgm_copula(1.0), rng, size=n)
    rho = spearmanr(u1, u2).statistic
    stderr = 1.0 / np.sqrt(n)
    assert abs(rho - 1.0 / 3.0) < 3.0 * stderr


def test_sampling_empirical_cdf_negative_dependence():
    rng = np.random.Generator(np.random.Philox(key=13))
    n = 1_000_000
    u1, u2 = sample_pair(fgm_copula(-1.0), rng, size=n)
    p = 0.1875  # copula_cdf(theta=-1, 0.5, 0.5)
    hits = np.mean((u1 <= 0.5) & (u2 <= 0.5))
    stderr = np.sqrt(p * (1.0 - p) / n)
    assert abs(hits - p) < 3.0 * stderr

