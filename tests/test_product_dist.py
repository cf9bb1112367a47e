"""End-to-end SNR distribution: closed form vs quadrature, density, moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from swiptrelay.copula import conditional_cdf, fgm_copula, product_copula, sample_pair
from swiptrelay.fading import NakagamiPower, power_cdf, power_pdf, power_quantile
from swiptrelay.product_dist import (
    ClosedFormCoefficients,
    ClosedFormRangeError,
    EndToEndSnrModel,
    UnsupportedClosedFormError,
    closed_form_coefficients,
    closed_form_model,
    mean_snr_factor,
    product_cdf_general,
    snr_cdf_closed,
    snr_pdf_closed,
    snr_survival_closed,
)


def scalar_oracle_cdf(model, y):
    """The product CDF at one threshold by two scalar ``quad`` calls.

    The route ``product_cdf_general`` replaced, kept as its oracle: it
    integrates f_sr(g) C_{2|1}(F_rd(y'/g) | F_sr(g)) over g in (0, inf) with
    y' = y / snr_scale, split at g = sqrt(y'), through the checked
    ``power_cdf``/``power_pdf``/``conditional_cdf`` evaluators.  It is right
    at moderate y'; far above y' = 1e6 its first interval is so wide that
    QUADPACK misses the mass near g ~ 1 and returns about 0.
    """
    yp = y / model.snr_scale
    msr, mrd, cop = model.marginal_sr, model.marginal_rd, model.copula

    def integrand(g):
        u1 = power_cdf(msr, g)
        if u1 <= 0.0 or u1 >= 1.0:
            return 0.0
        return power_pdf(msr, g) * conditional_cdf(cop, power_cdf(mrd, yp / g), u1)

    split = math.sqrt(yp)
    return sum(quad(integrand, lo, hi, epsabs=5e-11, epsrel=1e-10, limit=400)[0]
               for lo, hi in ((0.0, split), (split, np.inf)))


def test_closed_form_guard():
    asym = EndToEndSnrModel(1.0, NakagamiPower(1.0), NakagamiPower(2.0), fgm_copula(0.0))
    with pytest.raises(UnsupportedClosedFormError):
        snr_cdf_closed(asym, 1.0)
    half = EndToEndSnrModel(1.0, NakagamiPower(0.5), NakagamiPower(0.5), fgm_copula(0.0))
    with pytest.raises(UnsupportedClosedFormError):
        snr_cdf_closed(half, 1.0)
    scaled = EndToEndSnrModel(
        1.0, NakagamiPower(1.0, 2.0), NakagamiPower(1.0, 2.0), fgm_copula(0.0)
    )
    with pytest.raises(UnsupportedClosedFormError):
        snr_cdf_closed(scaled, 1.0)


def test_coefficient_validation():
    with pytest.raises(UnsupportedClosedFormError):
        ClosedFormCoefficients.build(0, 1.0)
    with pytest.raises(ValueError):
        ClosedFormCoefficients.build(2, -1.0)


def test_cached_coefficients_are_shared_and_read_only():
    cf = closed_form_coefficients(3, 7.5)
    assert closed_form_coefficients(3, 7.5) is cf
    for name in ("a", "c", "d", "q", "t", "w", "z"):
        with pytest.raises(ValueError):
            getattr(cf, name)[0] = 1.0


@pytest.mark.parametrize("m, scale", [(2, 1e155), (3, 1e120), (2, 1e-200)])
def test_coefficients_outside_double_range_raise(m, scale):
    # g ** m overflows (or underflows to 0): once a raw OverflowError or
    # ZeroDivisionError, now the closed forms' guard error.
    with pytest.raises(ClosedFormRangeError, match="double range"):
        ClosedFormCoefficients.build(m, scale)


def test_printed_b_sum_equals_c_sum():
    # The survival sums c twice in place of the printed b + c; the printed b
    # coefficients, inline, give the same sum at argument zeta sqrt(2y).
    for m in (1, 2, 3, 5):
        for g in (0.01, 6.5625, 1e4):
            cf = closed_form_coefficients(m, g)
            for y in (1e-3, 1.0, 100.0):
                z2 = cf.zeta * math.sqrt(2.0 * y)
                b_sum = sum(
                    m ** (k + n) * 2.0 ** ((n - k - m + 2.0) / 2.0)
                    / (g ** ((k + n) / 2.0) * math.factorial(k) * math.factorial(n))
                    * y ** ((k + n + m) / 2.0) * kv(n - k - m, z2)
                    for k in range(m) for n in range(m)
                )
                c_sum = sum(cf.c[n, l] * y ** ((l + m + n) / 2.0) * kv(l - m + n, z2)
                            for n in range(m) for l in range(m))
                assert b_sum == pytest.approx(c_sum, rel=1e-13)


def test_cdf_boundaries():
    model = closed_form_model(3.0, 2, fgm_copula(0.7))
    assert snr_cdf_closed(model, 0.0) == 0.0
    assert snr_cdf_closed(model, 1e4 * 3.0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        snr_cdf_closed(model, -1.0)


def test_independent_rayleigh_product_reference():
    # m=1, theta=0: P(G1 G2 > y) = 2 sqrt(y) K_1(2 sqrt(y)).
    model = closed_form_model(1.0, 1, product_copula())
    for y in (0.01, 0.1, 1.0, 5.0):
        s = 2.0 * math.sqrt(y)
        assert snr_survival_closed(model, y) == pytest.approx(s * kv(1, s), rel=1e-10)


def test_closed_vs_quadrature_point():
    model = closed_form_model(5.0, 2, fgm_copula(-1.0))
    assert snr_cdf_closed(model, 2.0) == pytest.approx(
        product_cdf_general(model, 2.0), abs=1e-6
    )


def test_closed_vs_quadrature_rayleigh_point():
    model = closed_form_model(1.0, 1, fgm_copula(1.0))
    assert snr_cdf_closed(model, 1.0) == pytest.approx(
        product_cdf_general(model, 1.0), abs=1e-6
    )


def test_closed_vs_quadrature_supnorm_one_cell():
    scale = 6.5625
    model = closed_form_model(scale, 2, fgm_copula(0.5))
    grid = np.geomspace(1e-3 * scale, 1e2 * scale, 25)
    closed = np.array([snr_cdf_closed(model, y) for y in grid])
    assert np.max(np.abs(closed - product_cdf_general(model, grid))) < 1e-6


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
def test_general_cdf_at_large_scaled_threshold(m, theta):
    # y / snr_scale from 1e6 to 1e14, where the scalar oracle returns 0.
    scale = 2.5
    model = closed_form_model(scale, m, fgm_copula(theta))
    ys = scale * np.geomspace(1e6, 1e14, 9)
    closed = np.array([snr_cdf_closed(model, y) for y in ys])
    assert np.max(np.abs(product_cdf_general(model, ys) - closed)) < 1e-9
    for y, c in zip(ys, closed):
        assert abs(product_cdf_general(model, y) - c) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 3.0])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_vector_route_matches_scalar_oracle(m, theta):
    marg = NakagamiPower(m)
    model = EndToEndSnrModel(2.0, marg, marg, fgm_copula(theta))
    ys = 2.0 * np.geomspace(1e-3, 1e2, 8)
    oracle = np.array([scalar_oracle_cdf(model, y) for y in ys])
    assert np.max(np.abs(product_cdf_general(model, ys) - oracle)) < 1e-9


def test_general_cdf_array_contract():
    model = closed_form_model(3.0, 2, fgm_copula(-0.5))
    ys = np.array([[0.0, 0.3, 3.0], [30.0, 300.0, 1.0]])
    out = product_cdf_general(model, ys)
    assert isinstance(out, np.ndarray) and out.shape == ys.shape
    assert out[0, 0] == 0.0
    for y, v in zip(ys.ravel(), out.ravel()):
        assert abs(v - snr_cdf_closed(model, y)) < 1e-9
    assert product_cdf_general(model, np.empty((0,))).shape == (0,)
    for y in (1.0, np.float64(1.0), np.array(1.0)):
        assert type(product_cdf_general(model, y)) is float
    assert product_cdf_general(model, 0.0) == 0.0
    assert type(product_cdf_general(model, 0.0)) is float
    for bad in (-1.0, math.nan, [1.0, -2.0], [0.5, math.nan], math.inf):
        with pytest.raises(ValueError):
            product_cdf_general(model, bad)
    tiny = closed_form_model(1e-300, 1, fgm_copula(0.0))
    with pytest.raises(ValueError):
        product_cdf_general(tiny, 1e10)  # y / snr_scale overflows


def test_quadrature_supports_non_integer_shape():
    model = EndToEndSnrModel(
        2.0, NakagamiPower(1.5), NakagamiPower(1.5), fgm_copula(0.5)
    )
    v1 = product_cdf_general(model, 1.0)
    v2 = product_cdf_general(model, 10.0)
    assert 0.0 < v1 < v2 < 1.0


def test_pdf_normalizes():
    model = closed_form_model(3.0, 2, fgm_copula(0.5))
    val, _ = quad(
        lambda s: 2.0 * s * snr_pdf_closed(model, s * s),
        1e-8,
        80.0,
        epsabs=1e-10,
        limit=300,
    )
    assert val == pytest.approx(1.0, abs=1e-7)


def test_pdf_matches_cdf_finite_difference():
    model = closed_form_model(3.0, 2, fgm_copula(0.5))
    y, h = 1.5, 1e-4
    fd = (snr_cdf_closed(model, y + h) - snr_cdf_closed(model, y - h)) / (2.0 * h)
    assert snr_pdf_closed(model, y) == pytest.approx(fd, abs=1e-5)


def test_pdf_positive_domain():
    model = closed_form_model(1.0, 1, fgm_copula(0.0))
    with pytest.raises(ValueError):
        snr_pdf_closed(model, 0.0)


def test_survival_monotone_decreasing():
    model = closed_form_model(4.0, 3, fgm_copula(-0.5))
    grid = np.geomspace(1e-3, 1e3, 50)
    surv = [snr_survival_closed(model, y) for y in grid]
    assert all(a >= b - 1e-12 for a, b in zip(surv, surv[1:]))


def test_lower_tail_cdf_monotone_in_theta():
    # Positive dependence thickens the joint lower tail of the product, so
    # below the median the CDF is monotone increasing in theta.
    thetas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for m in (1, 2):
        models = {th: closed_form_model(1.0, m, fgm_copula(th)) for th in thetas}
        for y in (0.01, 0.05, 0.1):
            vals = [snr_cdf_closed(models[th], y) for th in thetas]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_mean_snr_factor_anchors():
    # m=1 reduces to 1 + theta/4; theta=0 is always 1.
    for theta in (-1.0, 0.0, 0.5, 1.0):
        assert mean_snr_factor(1, theta) == pytest.approx(1.0 + theta / 4.0, rel=1e-14)
    for m in (1, 2, 3, 4):
        assert mean_snr_factor(m, 0.0) == 1.0


def test_mean_snr_factor_vs_quadrature_identity():
    # The dependence correction equals (1 - 2 E[G F(G)])^2 scaled by theta.
    from swiptrelay.fading import power_cdf, power_pdf

    for m in (1, 2, 3):
        d = NakagamiPower(float(m), 1.0)
        val, _ = quad(
            lambda g: g * power_cdf(d, g) * power_pdf(d, g), 0.0, np.inf,
            epsabs=1e-12,
        )
        expected = 1.0 + 1.0 * (1.0 - 2.0 * val) ** 2
        assert mean_snr_factor(m, 1.0) == pytest.approx(expected, rel=1e-10)


def test_mean_snr_factor_domain():
    with pytest.raises(ValueError):
        mean_snr_factor(0, 0.5)
    with pytest.raises(ValueError):
        mean_snr_factor(2, 1.5)


def test_empirical_cdf_tracks_closed_form():
    scale = 2.0
    model = closed_form_model(scale, 2, fgm_copula(1.0))
    rng = np.random.Generator(np.random.Philox(key=29))
    n = 200_000
    u1, u2 = sample_pair(fgm_copula(1.0), rng, size=n)
    marg = NakagamiPower(2.0, 1.0)
    snr = scale * power_quantile(marg, np.asarray(u1)) * power_quantile(marg, np.asarray(u2))
    snr.sort()
    grid = np.geomspace(1e-2 * scale, 10.0 * scale, 30)
    emp = np.searchsorted(snr, grid, side="right") / n
    closed = np.array([snr_cdf_closed(model, y) for y in grid])
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    assert np.max(np.abs(emp - closed)) < band
