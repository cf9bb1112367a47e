"""End-to-end SNR distribution: closed form vs quadrature, density, moments."""

import dataclasses
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from swiptrelay.copula import conditional_cdf, fgm_copula, sample_pair
from swiptrelay.fading import NakagamiPower, power_cdf, power_pdf, power_quantile
from swiptrelay.product_dist import (
    ClosedFormCoefficients,
    ClosedFormRangeError,
    UnsupportedClosedFormError,
    mean_snr_factor,
    product_cdf_general,
    snr_cdf_closed,
    snr_pdf_closed,
    snr_survival_closed,
)
from swiptrelay.specfun import meijer_g
from swiptrelay.swipt_metrics import capacity_rd_meijer, ergodic_capacity_rd


def scalar_oracle_cdf(scale, m, theta, y):
    """The product CDF at one threshold by two scalar ``quad`` calls.

    The route ``product_cdf_general`` replaced, kept as its oracle: it
    integrates f_sr(g) C_{2|1}(F_rd(y'/g) | F_sr(g)) over g in (0, inf) with
    y' = y / snr_scale, split at g = sqrt(y'), through the checked
    ``power_cdf``/``power_pdf``/``conditional_cdf`` evaluators.  It is right
    at moderate y'; far above y' = 1e6 its first interval is so wide that
    QUADPACK misses the mass near g ~ 1 and returns about 0.
    """
    yp = y / scale
    marg, cop = NakagamiPower(m), fgm_copula(theta)

    def integrand(g):
        u1 = power_cdf(marg, g)
        if u1 <= 0.0 or u1 >= 1.0:
            return 0.0
        return power_pdf(marg, g) * conditional_cdf(cop, power_cdf(marg, yp / g), u1)

    split = math.sqrt(yp)
    return sum(quad(integrand, lo, hi, epsabs=5e-11, epsrel=1e-10, limit=400)[0]
               for lo, hi in ((0.0, split), (split, np.inf)))


def test_closed_form_guard():
    for closed_form in (snr_cdf_closed, snr_pdf_closed):
        with pytest.raises(UnsupportedClosedFormError, match="m >= 1, got 0.5; use product_cdf_general"):
            closed_form(1.0, 0.5, 0.0, 1.0)
        # Every element of a scale or theta array is checked.
        for scale, theta, match in (([1.0, -1.0], 0.0, "snr_scale must be finite and positive"),
                                    ([1.0, math.inf], 0.0, "snr_scale must be finite and positive"),
                                    (1.0, [0.5, 1.5], "theta must lie in"),
                                    (1.0, [0.5, math.nan], "theta must lie in")):
            with pytest.raises(ValueError, match=match):
                closed_form(scale, 2, theta, 1.0)


def test_coefficient_validation():
    with pytest.raises(UnsupportedClosedFormError):
        ClosedFormCoefficients.build(0, 1.0)
    for bad_scale in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ClosedFormCoefficients.build(2, bad_scale)
    # Beyond m = 100 the terms leave double range: refused, not summed.
    with pytest.raises(ClosedFormRangeError, match="m <= 100"):
        ClosedFormCoefficients.build(101, 1.0)


def test_coefficients_are_read_only():
    cf = ClosedFormCoefficients.build(3, 7.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cf.zeta = 1.0


def printed_families(m, g):
    """The paper's coefficient families as printed, built from g = snr_scale.

    The library sums the same terms grouped by Bessel order on
    z = zeta sqrt(y), where every power of g cancels; these are the oracle.
    """
    f = math.factorial
    zeta = 2.0 * m / math.sqrt(g)
    B = 2.0 * m ** (2 * m) / (g**m * math.gamma(m) ** 2)
    r = range(m)
    fam = {
        "a": [m**n / (g ** (n / 2.0) * f(n)) for n in r],
        # b is indexed [k, n], c [n, l]: the two double sums at zeta sqrt(2y)
        "b": [[m ** (k + n) * 2.0 ** ((n - k - m + 2.0) / 2.0) / (g ** ((k + n) / 2.0) * f(k) * f(n))
               for n in r] for k in r],
        "c": [[m ** (n + l) * 2.0 ** ((m - n - l) / 2.0) / (g ** ((n + l) / 2.0) * f(n) * f(l))
               for l in r] for n in r],
        "d": [[[2.0 * m ** (k + n + l) / (g ** ((k + n + l) / 2.0) * f(k) * f(n) * f(l))
                for l in r] for n in r] for k in r],
        "q": [2.0 ** (2.0 - k / 2.0) * m**k / (g ** (k / 2.0) * f(k)) for k in r],
        "t": [[4.0 * m ** (k + n) / (g ** ((k + n) / 2.0) * f(k) * f(n)) for n in r] for k in r],
        "w": [2.0 ** (2.0 - m) * m**k / (g ** (k / 2.0) * zeta**k * f(k)) for k in r],
        "z": [[2.0 ** (2.0 - 2.0 * m) * m ** (k + n) / (g ** ((k + n) / 2.0) * zeta ** (k + n) * f(k) * f(n))
               for n in r] for k in r],
    }
    fam.update(B=B, zeta=zeta, D=2.0 ** (2 * m - 2) * B / (zeta ** (2 * m) * math.log(2.0)))
    return fam


def printed_b_sum(fam, m, y):
    z2 = fam["zeta"] * math.sqrt(2.0 * y)
    return sum(fam["b"][k][n] * y ** ((k + n + m) / 2.0) * kv(n - k - m, z2)
               for k in range(m) for n in range(m))


def printed_c_sum(fam, m, y):
    z2 = fam["zeta"] * math.sqrt(2.0 * y)
    return sum(fam["c"][n][l] * y ** ((l + m + n) / 2.0) * kv(l - m + n, z2)
               for n in range(m) for l in range(m))


def printed_survival(fam, m, th, y):
    z1 = fam["zeta"] * math.sqrt(y)
    z3 = 2.0 * fam["zeta"] * math.sqrt(y)
    a_sum = sum(fam["a"][n] * y ** ((m + n) / 2.0) * kv(n - m, z1) for n in range(m))
    d_sum = sum(fam["d"][k][n][l] * y ** ((k + n + l + m) / 2.0) * kv(n + l - k - m, z3)
                for k in range(m) for n in range(m) for l in range(m))
    return math.sqrt(2.0 * fam["B"]) * (
        (1.0 + th) * a_sum - th * (printed_b_sum(fam, m, y) + printed_c_sum(fam, m, y)) + th * d_sum)


def printed_density(fam, m, th, y):
    z1 = fam["zeta"] * math.sqrt(y)
    z2 = fam["zeta"] * math.sqrt(2.0 * y)
    z3 = 2.0 * fam["zeta"] * math.sqrt(y)
    q_sum = sum(fam["q"][k] * y ** (k / 2.0 + m - 1.0) * kv(k, z2) for k in range(m))
    t_sum = sum(fam["t"][k][n] * y ** ((k + n) / 2.0 + m - 1.0) * kv(n - k, z3)
                for k in range(m) for n in range(m))
    return fam["B"] * ((1.0 + th) * y ** (m - 1.0) * kv(0, z1) - th * q_sum + th * t_sum)


def printed_capacity_rd(fam, m, th, g):
    # The printed arguments 4/zeta^2, 2/zeta^2 and 1/zeta^2 are g/m^2, g/(2m^2)
    # and g/(4m^2); they are taken correctly rounded, as the library does,
    # since the Mellin-Barnes quadrature amplifies a 1-ulp shift of its
    # argument (4.5e-14 relative at x = 1e8/9, m = 3).
    x = g / (4 * m * m)
    total = (1.0 + th) * meijer_g((1.0 - m, 1.0 - m, 1.0, 1.0), 4.0 * x)
    for k in range(m):
        total -= th * fam["w"][k] * meijer_g((1.0 - (m + k), 1.0 - m, 1.0, 1.0), 2.0 * x)
        for n in range(m):
            total += th * fam["z"][k][n] * meijer_g((1.0 - (m + n), 1.0 - (m + k), 1.0, 1.0), x)
    return fam["D"] * total


PRINTED_SCALES = (1e-3, 6.5625, 1e4, 1e8)
PRINTED_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_grouped_sums_match_printed_families(m):
    # Each grid goes in as one array too; every element must equal its own
    # scalar call exactly, so no element depends on its neighbours.
    for g in PRINTED_SCALES:
        fam = printed_families(m, g)
        for th in PRINTED_THETAS:
            law = (g, m, th)
            ys = g * np.geomspace(1e-4, 1e3, 15)
            for closed, printed in ((snr_survival_closed, printed_survival),
                                    (snr_pdf_closed, printed_density)):
                scalars = [closed(*law, y) for y in ys]
                assert all(type(v) is float for v in scalars)
                assert scalars == pytest.approx([printed(fam, m, th, y) for y in ys],
                                                rel=1e-12, abs=0.0)
                assert closed(*law, ys).tolist() == scalars
                assert closed(*law, ys[::-1].reshape(3, 5)).tolist() == np.reshape(
                    scalars[::-1], (3, 5)).tolist()


@pytest.mark.parametrize("closed, bad, match", [
    (snr_survival_closed, -2.0, "non-negative, got y = -2"),
    (snr_survival_closed, math.nan, "non-negative, got y = nan"),
    (snr_pdf_closed, 0.0, "y > 0, got y = 0"),
    (snr_pdf_closed, math.nan, "y > 0, got y = nan"),
])
def test_array_refuses_first_bad_threshold(closed, bad, match):
    law = (6.5625, 2, 0.5)
    with pytest.raises(ValueError, match=match):
        closed(*law, np.array([1.0, bad, 3.0, -5.0]))


def test_array_range_error_names_the_offending_threshold():
    law = (6.5625, 3, 0.5)
    with pytest.raises(ClosedFormRangeError, match="at y = 1e-200 escapes"):
        snr_survival_closed(*law, np.array([1.0, 0.0, 1e-200, 1e-300, 4.0]))
    law = (1e60, 3, 0.5)
    with pytest.raises(ClosedFormRangeError, match="at y = 1e-300 is not finite"):
        snr_pdf_closed(*law, np.array([1e60, 1e-300, 1e-310]))


RD_ORACLE = Path(__file__).parent / "data" / "capacity_rd_mpmath.csv"


def mpmath_capacity_rd(m, g, thetas):
    """The printed RD capacity bracket at 30 digits, one mpmath ``meijerg`` per term."""
    with mp.workdps(30):
        x = mp.mpf(g) / (m * m)

        def G(k, n, arg):
            return mp.meijerg([[1 - m - k, 1 - m - n, 1, 1], []], [[1], [0]], arg)

        g0 = G(0, 0, x)
        s1 = mp.fsum(mp.mpf(2) ** (2 - m - k) / mp.factorial(k) * G(k, 0, x / 2) for k in range(m))
        s2 = mp.fsum(mp.mpf(2) ** (2 - 2 * m - k - n) / (mp.factorial(k) * mp.factorial(n))
                     * G(k, n, x / 4) for k in range(m) for n in range(m))
        return [mp.nstr(((1 + th) * g0 - th * s1 + th * s2) / (2 * mp.gamma(m) ** 2 * mp.log(2)), 30)
                for th in map(mp.mpf, thetas)]


def write_capacity_rd_oracle():
    lines = ["m,gamma_hat_d,theta,capacity_rd\n"]
    for m in (1, 2, 3, 5):
        for g in PRINTED_SCALES:
            values = mpmath_capacity_rd(m, g, PRINTED_THETAS)
            lines += [f"{m},{g!r},{th!r},{v}\n" for th, v in zip(PRINTED_THETAS, values)]
    RD_ORACLE.write_text("".join(lines))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_capacity_rd_meijer_matches_printed_families(m):
    """The printed per-term float sum and the one-contour ``capacity_rd_meijer``
    both lie within 5e-13 relative of 30-digit mpmath values of the printed
    bracket (worst measured 2.5e-13 for the float sum and 2.6e-13 for the
    contour, at gamma_hat_d = 1e8, where a 1-ulp argument shift is amplified).  The values are stored in
    tests/data/capacity_rd_mpmath.csv; regenerate them (about a minute) with
    ``PYTHONPATH=src python -c "from tests.test_product_dist import
    write_capacity_rd_oracle as w; w()"`` from the repository root.
    """
    rows = [line.split(",") for line in RD_ORACLE.read_text().splitlines()[1:]]
    oracle = {(int(mm), float(g), float(th)): float(v) for mm, g, th, v in rows}
    assert len(oracle) == 4 * len(PRINTED_SCALES) * len(PRINTED_THETAS)
    for g in PRINTED_SCALES:
        fam = printed_families(m, g)
        for th in PRINTED_THETAS:
            exact = oracle[m, g, th]
            assert printed_capacity_rd(fam, m, th, g) == pytest.approx(exact, rel=5e-13, abs=0.0)
            assert capacity_rd_meijer(g, m, th) == pytest.approx(exact, rel=5e-13, abs=0.0)


def test_rd_capacity_quadrature_matches_mpmath_table():
    """``ergodic_capacity_rd`` integrates the closed-form density; it lies
    within its own epsrel of the stored 30-digit values of the printed
    bracket (worst measured 2.4e-13)."""
    rows = [line.split(",") for line in RD_ORACLE.read_text().splitlines()[1:]]
    assert len(rows) == 80
    for m, g, th, exact in rows:
        assert ergodic_capacity_rd(float(g), int(m), float(th)) == pytest.approx(
            float(exact), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("m, scale", [(2, 1e155), (3, 1e120)])
def test_closed_cdf_beyond_printed_coefficient_range(m, scale):
    # g ** m leaves double range here, so the printed families cannot be
    # built; the grouped sums on z never form it.
    law = (scale, m, 0.5)
    for y in scale * np.array([0.1, 1.0, 10.0]):
        assert abs(snr_cdf_closed(*law, y) - product_cdf_general(*law, y)) < 1e-12


def test_closed_forms_vanish_where_exp_minus_z_underflows():
    law = (1e-200, 2, 0.5)
    assert snr_survival_closed(*law, 1.0) == 0.0
    assert snr_pdf_closed(*law, 1.0) == 0.0


@pytest.mark.parametrize("m, y", [(3, 1e-200), (2, 1e-310)])
def test_survival_refuses_overflowing_bessel_terms(m, y):
    # K_{-m}(z) overflows while (z/2)^m underflows: once a silent nan.
    law = (6.5625, m, 0.5)
    with pytest.raises(ClosedFormRangeError, match="escapes"):
        snr_survival_closed(*law, y)


def test_density_refuses_non_finite_value():
    law = (1e60, 3, 0.5)
    with pytest.raises(ClosedFormRangeError, match="not finite"):
        snr_pdf_closed(*law, 1e-300)


def test_deep_tail_keeps_terms_whose_exponential_is_subnormal():
    # At m = 20, theta = -1, y = 178 both surviving groups carry e^-x with
    # x > 745 before sums near 1e200; multiplied out they once gave 0.
    # Oracle: the grouped sums at 40 digits.
    m, y = 20, 178.0

    def conv(p, q):
        return [sum(p[k] * q[j - k] for k in range(len(p)) if 0 <= j - k < len(q))
                for j in range(len(p) + len(q) - 1)]

    with mp.workdps(40):
        z = 2 * m * mp.sqrt(mp.mpf(y))
        alpha = [(z / 2) ** n / mp.factorial(n) for n in range(m)]
        beta = [(z / (2 * mp.sqrt(2))) ** n / mp.factorial(n) for n in range(m)]
        bracket = (2 ** (mp.mpf(m) / 2 + 1) * sum(c * mp.besselk(j - m, mp.sqrt(2) * z)
                                                  for j, c in enumerate(conv(beta, beta)))
                   - 2 * sum(c * mp.besselk(i + 1 - 2 * m, 2 * z)
                             for i, c in enumerate(conv(conv(alpha, alpha), alpha[::-1]))))
        exact = 2 * (z / 2) ** m / mp.factorial(m - 1) * bracket
    law = (1.0, m, -1.0)
    got = snr_survival_closed(*law, y)
    assert 1e-250 < got == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    # In an array beside points whose exponentials are normal (1e-4) and 0 (1e4).
    assert snr_survival_closed(*law, np.array([1e-4, y, 1e4]))[1] == got


def test_printed_b_sum_equals_c_sum():
    # The grouped survival sums c twice in place of the printed b + c.
    for m in (1, 2, 3, 5):
        for g in (0.01, 6.5625, 1e4):
            fam = printed_families(m, g)
            for y in (1e-3, 1.0, 100.0):
                assert printed_b_sum(fam, m, y) == pytest.approx(
                    printed_c_sum(fam, m, y), rel=1e-13)


def test_cdf_boundaries():
    law = (3.0, 2, 0.7)
    assert snr_cdf_closed(*law, 0.0) == 0.0
    assert snr_cdf_closed(*law, 1e4 * 3.0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        snr_cdf_closed(*law, -1.0)


def test_independent_rayleigh_product_reference():
    # m=1, theta=0: P(G1 G2 > y) = 2 sqrt(y) K_1(2 sqrt(y)).
    law = (1.0, 1, 0.0)
    for y in (0.01, 0.1, 1.0, 5.0):
        s = 2.0 * math.sqrt(y)
        assert snr_survival_closed(*law, y) == pytest.approx(s * kv(1, s), rel=1e-10)


def test_closed_vs_quadrature_point():
    law = (5.0, 2, -1.0)
    assert snr_cdf_closed(*law, 2.0) == pytest.approx(
        product_cdf_general(*law, 2.0), abs=1e-6
    )


def test_closed_vs_quadrature_rayleigh_point():
    law = (1.0, 1, 1.0)
    assert snr_cdf_closed(*law, 1.0) == pytest.approx(
        product_cdf_general(*law, 1.0), abs=1e-6
    )


def test_closed_vs_quadrature_supnorm_one_cell():
    scale = 6.5625
    law = (scale, 2, 0.5)
    grid = np.geomspace(1e-3 * scale, 1e2 * scale, 25)
    closed = np.array([snr_cdf_closed(*law, y) for y in grid])
    assert np.max(np.abs(closed - product_cdf_general(*law, grid))) < 1e-6


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
def test_general_cdf_at_large_scaled_threshold(m, theta):
    # y / snr_scale from 1e6 to 1e14, where the scalar oracle returns 0.
    scale = 2.5
    law = (scale, m, theta)
    ys = scale * np.geomspace(1e6, 1e14, 9)
    closed = np.array([snr_cdf_closed(*law, y) for y in ys])
    assert np.max(np.abs(product_cdf_general(*law, ys) - closed)) < 1e-9
    for y, c in zip(ys, closed):
        assert abs(product_cdf_general(*law, y) - c) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 3.0])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_vector_route_matches_scalar_oracle(m, theta):
    ys = 2.0 * np.geomspace(1e-3, 1e2, 8)
    oracle = np.array([scalar_oracle_cdf(2.0, m, theta, y) for y in ys])
    assert np.max(np.abs(product_cdf_general(2.0, m, theta, ys) - oracle)) < 1e-9


def test_general_cdf_array_contract():
    law = (3.0, 2, -0.5)
    ys = np.array([[0.0, 0.3, 3.0], [30.0, 300.0, 1.0]])
    out = product_cdf_general(*law, ys)
    assert isinstance(out, np.ndarray) and out.shape == ys.shape
    assert out[0, 0] == 0.0
    for y, v in zip(ys.ravel(), out.ravel()):
        assert abs(v - snr_cdf_closed(*law, y)) < 1e-9
    assert product_cdf_general(*law, np.empty((0,))).shape == (0,)
    for y in (1.0, np.float64(1.0), np.array(1.0)):
        assert type(product_cdf_general(*law, y)) is float
    assert product_cdf_general(*law, 0.0) == 0.0
    assert type(product_cdf_general(*law, 0.0)) is float
    for bad in (-1.0, math.nan, [1.0, -2.0], [0.5, math.nan], math.inf):
        with pytest.raises(ValueError):
            product_cdf_general(*law, bad)
    for scale, theta in ((0.0, 0.5), (math.inf, 0.5), ([3.0, math.nan], 0.5), (3.0, [0.5, 1.5]),
                         (3.0, math.nan)):
        with pytest.raises(ValueError):
            product_cdf_general(scale, 2, theta, 1.0)
    # A finite y whose y / snr_scale overflows gets the CDF's limit.
    assert product_cdf_general(1e-300, 1, 0.0, 1e10) == 1.0


def test_quadrature_supports_non_integer_shape():
    law = (2.0, 1.5, 0.5)
    v1 = product_cdf_general(*law, 1.0)
    v2 = product_cdf_general(*law, 10.0)
    assert 0.0 < v1 < v2 < 1.0


def test_pdf_normalizes():
    law = (3.0, 2, 0.5)
    val, _ = quad(
        lambda s: 2.0 * s * snr_pdf_closed(*law, s * s),
        1e-8,
        80.0,
        epsabs=1e-10,
        limit=300,
    )
    assert val == pytest.approx(1.0, abs=1e-7)


def test_pdf_matches_cdf_finite_difference():
    law = (3.0, 2, 0.5)
    y, h = 1.5, 1e-4
    fd = (snr_cdf_closed(*law, y + h) - snr_cdf_closed(*law, y - h)) / (2.0 * h)
    assert snr_pdf_closed(*law, y) == pytest.approx(fd, abs=1e-5)


def test_pdf_positive_domain():
    law = (1.0, 1, 0.0)
    with pytest.raises(ValueError):
        snr_pdf_closed(*law, 0.0)


def test_survival_monotone_decreasing():
    law = (4.0, 3, -0.5)
    grid = np.geomspace(1e-3, 1e3, 50)
    surv = [snr_survival_closed(*law, y) for y in grid]
    assert all(a >= b - 1e-12 for a, b in zip(surv, surv[1:]))


def test_lower_tail_cdf_monotone_in_theta():
    # Positive dependence thickens the joint lower tail of the product, so
    # below the median the CDF is monotone increasing in theta.
    thetas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for m in (1, 2):
        for y in (0.01, 0.05, 0.1):
            vals = snr_cdf_closed(1.0, m, thetas, y).tolist()
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


@pytest.mark.parametrize("m", [20, 50, 100])
@pytest.mark.parametrize("theta", [-1.0, 0.5, 1.0])
def test_mean_snr_factor_at_large_m_matches_mpmath(m, theta):
    # h = sum_k 2^-(m+k) / (m B(m, k+1)) at 50 digits; the beta-function
    # series in doubles was 4.6e-15 off at m = 100.
    with mp.workdps(50):
        h = mp.fsum(mp.mpf(2) ** -(m + k) / (m * mp.beta(m, k + 1)) for k in range(m))
        exact = 1 + theta * (1 - h) ** 2
        assert abs(mean_snr_factor(m, theta) / exact - 1) <= 2e-16


def test_mean_snr_factor_domain():
    with pytest.raises(ValueError):
        mean_snr_factor(0, 0.5)
    with pytest.raises(ValueError):
        mean_snr_factor(2, 1.5)


def test_empirical_cdf_tracks_closed_form():
    scale = 2.0
    law = (scale, 2, 1.0)
    rng = np.random.Generator(np.random.Philox(key=29))
    n = 200_000
    u1, u2 = sample_pair(fgm_copula(1.0), rng, size=n)
    marg = NakagamiPower(2.0, 1.0)
    snr = scale * power_quantile(marg, np.asarray(u1)) * power_quantile(marg, np.asarray(u2))
    snr.sort()
    grid = np.geomspace(1e-2 * scale, 10.0 * scale, 30)
    emp = np.searchsorted(snr, grid, side="right") / n
    closed = np.array([snr_cdf_closed(*law, y) for y in grid])
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    assert np.max(np.abs(emp - closed)) < band
