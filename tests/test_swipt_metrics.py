"""System metrics: SNR scales, capacities, outage, asymptotics, adjudication."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import exp1

from swiptrelay.montecarlo import McConfig, batch_stream, simulate_metrics
from swiptrelay.copula import copula_cdf, fgm_copula, sample_pair
from swiptrelay.fading import NakagamiPower, power_quantile
from swiptrelay.product_dist import (
    ClosedFormRangeError,
    UnsupportedClosedFormError,
    product_cdf_general,
    snr_pdf_closed,
    snr_survival_closed,
)
from swiptrelay.specfun import QuadratureError
from swiptrelay.swipt_metrics import (
    OutOfRegimeError,
    BASELINE as BASE,
    OutageQuery,
    adjudicate_closed_forms,
    asymptotic_capacity_sr,
    asymptotic_outage,
    capacity_rd_meijer,
    capacity_sr_meijer,
    derive_snr_scales,
    ergodic_capacity_rd,
    ergodic_capacity_sr,
    outage_probability,
    outage_probability_quadrature,
    relay_snr_cdf,
)


FIG8 = replace(BASE, noise_power=1e-3)


def destination(sys):
    """The destination SNR law of a system: (gamma_hat_d, m, theta)."""
    return derive_snr_scales(sys).gamma_hat_d, sys.fading_m, sys.theta


def test_system_validation():
    with pytest.raises(ValueError):
        replace(BASE, ps_factor=1.0)
    with pytest.raises(ValueError):
        replace(BASE, eh_efficiency=0.0)
    with pytest.raises(ValueError):
        replace(BASE, theta=1.5)
    with pytest.raises(ValueError):
        replace(BASE, fading_m=0)


@pytest.mark.parametrize("field", [f.name for f in fields(BASE) if f.type == "float"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_system_refuses_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(BASE, **{field: value})


def test_derive_snr_scales_reference_point():
    # (P_S=10, N=1e-2, rho=0.3, kappa=0.7, d=2/2, alpha=2.5):
    # relay scale (1-0.3)*10/(2^2.5 * 0.01), destination scale
    # 0.7*0.3*10/((2*2)^2.5 * 0.01) by direct formula evaluation.
    scales = derive_snr_scales(BASE)
    assert scales.gamma_hat_r == pytest.approx(7.0 / (2.0**2.5 * 0.01), rel=1e-14)
    assert scales.gamma_hat_r == pytest.approx(123.7436867, rel=1e-9)
    assert scales.gamma_hat_d == pytest.approx(2.1 / (4.0**2.5 * 0.01), rel=1e-14)
    assert scales.gamma_hat_d == pytest.approx(6.5625, rel=1e-14)


def test_outage_query_from_db():
    # A dB threshold reaches OutageQuery already converted (sweepcfg); the
    # query itself only refuses a negative or non-finite linear threshold.
    with pytest.raises(ValueError):
        OutageQuery(-1.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_outage_query_refuses_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="finite"):
        OutageQuery(threshold)


@pytest.mark.parametrize("scale", [1e-20, 1e30, 1e40])
def test_meijer_capacities_refuse_cancellation_noise(scale):
    # At 1e40 both closed forms returned negative capacities without a word.
    with pytest.raises(QuadratureError):
        capacity_sr_meijer(scale, 1)
    with pytest.raises(QuadratureError):
        capacity_rd_meijer(scale, 2, 1.0)


# The five hop routes as calls of (scale, m, theta); the SR routes take no theta.
HOP_ROUTES = {
    "ergodic_capacity_sr": lambda g, m, theta: ergodic_capacity_sr(g, m),
    "capacity_sr_meijer": lambda g, m, theta: capacity_sr_meijer(g, m),
    "asymptotic_capacity_sr": lambda g, m, theta: asymptotic_capacity_sr(g, m),
    "ergodic_capacity_rd": ergodic_capacity_rd,
    "capacity_rd_meijer": capacity_rd_meijer,
}


@pytest.mark.parametrize("route", sorted(HOP_ROUTES))
@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
def test_hop_routes_refuse_a_scale_that_is_not_finite_and_positive(route, scale):
    # inf once raised a raw OverflowError in the contours, a QuadratureError on
    # a nan error estimate in the quadratures, and gave inf in the asymptote.
    with pytest.raises(ValueError, match=r"gamma_hat_[rd] must be finite and positive, got"):
        HOP_ROUTES[route](np.array([10.0, scale]), 2, 0.5)


@pytest.mark.parametrize("route", ["ergodic_capacity_sr", "capacity_sr_meijer", "asymptotic_capacity_sr"])
def test_sr_routes_refuse_an_m_off_the_nakagami_range(route):
    # m = 0.2 once gave a value below the Nakagami m >= 0.5, and nan a nan or a raw error.
    for m in (0.2, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="shape m must be finite and >= 0.5"):
            HOP_ROUTES[route](10.0, m, 0.0)


@pytest.mark.parametrize("route", ["ergodic_capacity_rd", "capacity_rd_meijer"])
def test_rd_routes_refuse_m_and_theta_off_the_closed_forms(route):
    # The contour once gave values at theta = 2 and -3 and at m = 101, a
    # TypeError at m = 1.5; the quadrature a ZeroDivisionError at m = 0.
    for m in (1.5, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UnsupportedClosedFormError, match="integer shape m >= 1"):
            HOP_ROUTES[route](10.0, m, 0.5)
    with pytest.raises(ClosedFormRangeError, match="m <= 100"):
        HOP_ROUTES[route](10.0, 101, 0.5)
    for theta in (2.0, -3.0, math.nan):
        with pytest.raises(ValueError, match=r"FGM theta must lie in \[-1, 1\]"):
            HOP_ROUTES[route](10.0, 2, np.array([0.5, theta]))


def test_rd_quadrature_refuses_nan_error_estimate(monkeypatch):
    # A nan estimate once passed the "err > bound" check.
    import swiptrelay.swipt_metrics as metrics_mod

    monkeypatch.setattr(metrics_mod.specfun, "gauss_kronrod", lambda *a, **kw: (math.nan, math.nan))
    with pytest.raises(QuadratureError, match="RD capacity"):
        ergodic_capacity_rd(6.5625, 2, 0.5)


def test_quadrature_outage_where_scaled_threshold_overflows():
    # threshold / gamma_hat_d = 1e290 / 6.6e-21 overflows; the product-CDF
    # integral refuses that with ValueError, the outage is simply 1.
    sys = replace(BASE, source_power=1e-14, noise_power=1e4)
    assert derive_snr_scales(sys).gamma_hat_d < 1e-20
    q = OutageQuery(1e290)
    assert outage_probability_quadrature(sys, q) == outage_probability(sys, q) == 1.0


@pytest.mark.parametrize("threshold", [1e19, 1e20, 1e200])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_form_outage_at_huge_threshold(m, theta, threshold):
    # The destination survival underflows to 0 there: scipy's kve is nan for
    # arguments from 2**30 on, and y ** p overflows at y = 1e200 for m >= 2.
    sys, q = replace(BASE, fading_m=m, theta=theta), OutageQuery(threshold)
    closed = outage_probability(sys, q)
    assert math.isfinite(closed)
    assert closed == outage_probability_quadrature(sys, q)
    assert snr_survival_closed(*destination(sys), threshold) == 0.0
    assert snr_pdf_closed(*destination(sys), threshold) == 0.0


def test_relay_cdf_is_gamma_cdf():
    assert relay_snr_cdf(10.0, 1, 10.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert relay_snr_cdf(10.0, 2, 0.0) == 0.0


def test_sr_capacity_rayleigh_identity():
    # m=1: C = e^{1/s} E_1(1/s) / (2 ln 2), by scipy's exp1 where e^{1/s} is
    # finite and by 30-digit mpmath below.  The quadrature on [0, inf) was
    # 2.1e-10 off at s = 1e9 and 3.2e-11 at 1e10.
    mpmath = pytest.importorskip("mpmath")
    for s in (1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 1.0, 10.0, 123.7436867, 1e4, 1e6,
              1e9, 3.7e9, 1e10, 1e12, 1e15, 1e19):
        if 1.0 / s < 700.0:
            exact = math.exp(1.0 / s) * exp1(1.0 / s)
        else:
            with mpmath.workdps(30):
                exact = float(mpmath.exp(1 / mpmath.mpf(s)) * mpmath.e1(1 / mpmath.mpf(s)))
        assert ergodic_capacity_sr(s, 1) == pytest.approx(exact / (2.0 * math.log(2.0)),
                                                          rel=1e-12, abs=0.0)


def _scale_axis_bound(capacity, scale: float) -> float:
    """How far a column of a call over many SNR scales may lie from its
    one-column call: 1e-11, but 2e-11 for a contour at 1e-8.  A quadrature
    column moves with the panels it shares.  A contour column keeps its bits
    (test_contour_columns_equal_their_one_column_calls); the wider bound
    dates from an adaptive contour rule, whose shared panels moved a column
    at 1e-8 by up to 1.2e-11."""
    return 2e-11 if capacity in (capacity_sr_meijer, capacity_rd_meijer) and scale < 1e-7 else 1e-11


def test_sr_capacity_meijer_matches_quadrature():
    for m, s in ((1, 10.0), (2, 123.74), (3, 50.0)):
        assert capacity_sr_meijer(s, m) == pytest.approx(
            ergodic_capacity_sr(s, m), abs=1e-9
        )
    # An array of m shares one call, and each column matches its one-m call.
    ms = np.array([1, 2, 3, 8])
    for capacity in (capacity_sr_meijer, ergodic_capacity_sr):
        together = capacity(123.74, ms)
        assert together.shape == ms.shape
        for m, value in zip(ms.tolist(), together):
            assert value == pytest.approx(capacity(123.74, m), rel=1e-13, abs=0.0)
    # The SNR scale is one more axis: each column of a call over scales from
    # 1e-8 to 1e12 matches its one-column call.
    scales = np.geomspace(1e-8, 1e12, 11)[:, None]
    for capacity in (capacity_sr_meijer, ergodic_capacity_sr):
        together = capacity(scales, np.array([1, 3]))
        assert together.shape == (11, 2)
        for (i, j), value in np.ndenumerate(together):
            assert value == pytest.approx(capacity(float(scales[i, 0]), (1, 3)[j]),
                                          rel=_scale_axis_bound(capacity, scales[i, 0]), abs=0.0)


def test_sr_capacity_mc_oracle():
    s, m, n = 123.7436867, 2, 1_000_000
    rng = np.random.Generator(np.random.Philox(key=31))
    g = rng.gamma(shape=m, scale=s / m, size=n)
    cap = 0.5 * np.log2(1.0 + g)
    stderr = cap.std(ddof=1) / math.sqrt(n)
    assert abs(ergodic_capacity_sr(s, m) - cap.mean()) < 3.0 * stderr


def test_rd_quadrature_evaluates_the_density_once_per_round(monkeypatch):
    # Each Gauss-Kronrod round passes all its nodes (21 per panel) to the
    # density in one call; a per-node integrand would make hundreds of calls.
    import swiptrelay.swipt_metrics as metrics_mod

    sizes = []

    def counting(*args):
        sizes.append(np.size(args[-1]))
        return snr_pdf_closed(*args)

    monkeypatch.setattr(metrics_mod, "snr_pdf_closed", counting)
    ergodic_capacity_rd(6.5625, 3, 0.5)
    assert 0 < len(sizes) <= 50
    assert min(sizes) >= 21


def test_rd_capacity_meijer_matches_quadrature():
    for m, theta in ((1, 0.0), (1, 1.0), (2, -1.0), (3, 0.5)):
        assert capacity_rd_meijer(6.5625, m, theta) == pytest.approx(
            ergodic_capacity_rd(6.5625, m, theta), abs=1e-9
        )
    # m and theta broadcast: one call gives the (m, theta) grid, and each
    # column matches its one-column call.
    ms, thetas = np.array([[1], [2], [3], [8]]), np.array([-1.0, 0.0, 0.5, 1.0])
    for capacity in (capacity_rd_meijer, ergodic_capacity_rd):
        together = capacity(6.5625, ms, thetas)
        assert together.shape == (4, 4)
        for (i, j), value in np.ndenumerate(together):
            assert value == pytest.approx(capacity(6.5625, int(ms[i, 0]), thetas[j]),
                                          rel=1e-13, abs=0.0)
    # The SNR scale is one more axis: each column of a call over scales from
    # 1e-8 to 1e12 matches its one-column call.
    scales, ms, thetas = np.geomspace(1e-8, 1e12, 11)[:, None, None], np.array([[1], [3]]), (-1.0, 0.5)
    for capacity in (capacity_rd_meijer, ergodic_capacity_rd):
        together = capacity(scales, ms, thetas)
        assert together.shape == (11, 2, 2)
        for (i, j, k), value in np.ndenumerate(together):
            assert value == pytest.approx(capacity(float(scales[i, 0, 0]), int(ms[j, 0]), thetas[k]),
                                          rel=_scale_axis_bound(capacity, scales[i, 0, 0]), abs=0.0)


@pytest.mark.parametrize("ghd", [1e-4, 1e-5, 1e-6, 1e-8])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
def test_rd_capacity_quadrature_at_small_scale(ghd, m, theta):
    # The capacity is about ghd * mean_snr_factor / (2 ln 2) here; an
    # integration interval that ignores the scale returned ~1e-53 instead.
    assert ergodic_capacity_rd(ghd, m, theta) == pytest.approx(
        capacity_rd_meijer(ghd, m, theta), rel=1e-9, abs=0.0
    )


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("ghd", [1e8, 1e12])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
def test_rd_capacity_meijer_at_large_scale_is_quiet_and_right(ghd, theta):
    # Here the Mellin-Barnes quadrature used to leak roundoff warnings
    # while its relative error estimates stayed below 2e-10.
    assert capacity_rd_meijer(ghd, 3, theta) == pytest.approx(
        ergodic_capacity_rd(ghd, 3, theta), rel=1e-9
    )


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("ghd", [1e8, 1e12])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
@pytest.mark.parametrize("m", [20, 50, 100])
def test_rd_capacity_at_large_scale_and_large_m(m, ghd, theta):
    # The same check as above at large m, where the RD quadrature's interval
    # once ended inside or below the density's mass (2e-7 and 0.9 off at
    # m = 20 and 50), and the per-term Meijer-G peaks overflowed at m = 100.
    assert capacity_rd_meijer(ghd, m, theta) == pytest.approx(
        ergodic_capacity_rd(ghd, m, theta), rel=1e-9
    )


def test_contours_match_quadrature_on_a_wide_grid():
    # One call per route over twelve decades of scale, m and theta.  Each
    # contour column takes its own trapezoidal step, fine enough for its own
    # e^(-it ln x); one fixed step of 0.1 for every column was 1.1e-6 off here.
    scales, ms = np.geomspace(1e-3, 1e9, 25)[:, None, None], np.array([[1], [3], [20]])
    thetas = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(capacity_sr_meijer(scales[..., 0], ms[:, 0]),
                               ergodic_capacity_sr(scales[..., 0], ms[:, 0]), rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(capacity_rd_meijer(scales, ms, thetas),
                               ergodic_capacity_rd(scales, ms, thetas), rtol=1e-9, atol=0.0)


def test_contour_columns_equal_their_one_column_calls():
    # Each contour column takes its own truncation height and trapezoidal
    # steps, so a call over many scales, m and theta changes none of its bits.
    scales, ms, thetas = np.geomspace(1e-8, 1e12, 6)[:, None, None], np.array([[1], [3], [20]]), (-1.0, 0.5)
    for (i, j, k), value in np.ndenumerate(capacity_rd_meijer(scales, ms, thetas)):
        assert value == capacity_rd_meijer(float(scales[i, 0, 0]), int(ms[j, 0]), thetas[k])
    for (i, j), value in np.ndenumerate(capacity_sr_meijer(scales[..., 0], ms[:, 0])):
        assert value == capacity_sr_meijer(float(scales[i, 0, 0]), int(ms[j, 0]))


def _rising(m: int, k: int) -> int:
    return math.prod(range(m, m + k))


def _unit_product_moment(m: int, k: int, theta: float) -> float:
    """E[(g_sr g_rd)^k] for unit-mean Gamma(m, 1/m) powers under the FGM copula:
    E[X^k]^2 + theta (E[X^k] - 2 E[X^k F(X)])^2, where for whole m
    F(x) = 1 - e^-mx sum_{j<m} (mx)^j / j! gives E[X^k F(X)] in closed form."""
    ex = _rising(m, k) / m**k
    exf = (_rising(m, k) - sum(math.factorial(k + m + j - 1) / (math.factorial(m - 1) * math.factorial(j)
                                                               * 2 ** (k + m + j)) for j in range(m))) / m**k
    return ex * ex + theta * (ex - 2.0 * exf) ** 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_contours_at_small_scale_match_the_moment_series(m):
    # At gamma_hat = 1e-8 the contour integrand's peak is about 1.7e4 times
    # its value, so rounding limits the contours; E ln(1 + g P) is
    # g E[P] - g^2 E[P^2] / 2 + g^3 E[P^3] / 3 to far below double precision.
    g = 1e-8

    def series(moment):
        return (g * moment(1) - g**2 * moment(2) / 2 + g**3 * moment(3) / 3) / (2 * math.log(2))

    assert capacity_sr_meijer(g, m) == pytest.approx(
        series(lambda k: _rising(m, k) / m**k), rel=1e-11, abs=0.0)
    for theta in (-1.0, 0.0, 0.5, 1.0):
        assert capacity_rd_meijer(g, m, theta) == pytest.approx(
            series(lambda k: _unit_product_moment(m, k, theta)), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("m, ghr", [(1, 1e-14), (2, 1e-12), (7, 7.8e-14)])
def test_sr_capacity_quadrature_at_small_scale(m, ghr):
    # E ln(1 + s g) with g ~ Gamma(m, 1) is s m - s^2 (m)_2 / 2 + s^3 (m)_3 / 3
    # to far below double precision at s = ghr / m < 1e-12; a fixed absolute
    # tolerance once left 1.9e-7 to 1.5e-5 relative error here.
    s = ghr / m
    exact = (s * m - s**2 * m * (m + 1) / 2 + s**3 * m * (m + 1) * (m + 2) / 3) / (2 * math.log(2))
    assert ergodic_capacity_sr(ghr, m) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [70, 95])
def test_sr_capacity_quadrature_at_large_m(m):
    # u ** (m - 1) once overflowed (m = 70) or gave a nan error estimate (m = 95).
    assert ergodic_capacity_sr(10.0, m) == pytest.approx(capacity_sr_meijer(10.0, m), rel=1e-9)


def test_rd_capacity_mc_oracle():
    sys = replace(BASE, fading_m=1, theta=0.0)
    scales = derive_snr_scales(sys)
    n = 1_000_000
    rng = batch_stream(101, 0)
    # Copula pair by conditional inversion, mapped through the marginal quantile.
    u1, u2 = sample_pair(fgm_copula(0.0), rng, size=n)
    marg = NakagamiPower(1.0)
    cap = 0.5 * np.log2(1.0 + scales.gamma_hat_d * power_quantile(marg, u1)
                        * power_quantile(marg, u2))
    stderr = cap.std(ddof=1) / math.sqrt(n)
    analytic = ergodic_capacity_rd(scales.gamma_hat_d, 1, 0.0)
    assert abs(analytic - cap.mean()) < 3.0 * stderr


def test_rd_capacity_increases_with_theta():
    vals = [ergodic_capacity_rd(6.5625, 1, th) for th in (-1.0, 0.0, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_system_capacity_reports_both_orderings():
    sys = replace(BASE, theta=1.0)
    scales = derive_snr_scales(sys)
    min_of_means = min(ergodic_capacity_sr(scales.gamma_hat_r, sys.fading_m),
                       ergodic_capacity_rd(scales.gamma_hat_d, sys.fading_m, sys.theta))
    # The other ordering, E[min], is the Monte-Carlo cap_min; it cannot
    # exceed the minimum of the means.
    mc = simulate_metrics([sys], [OutageQuery(1.0)], McConfig(samples=20_000, seed=61))[0]
    assert mc["cap_min"].mean <= min_of_means + 3.0 * mc["cap_min"].stderr


def test_outage_zero_threshold():
    assert outage_probability(FIG8, OutageQuery(0.0)) == 0.0


def test_outage_closed_vs_quadrature():
    for theta in (-1.0, 0.0, 1.0):
        sys = replace(FIG8, theta=theta)
        q = OutageQuery(1.0)
        assert outage_probability(sys, q) == pytest.approx(
            outage_probability_quadrature(sys, q), abs=1e-9
        )


def test_outage_expanded_composition_identity():
    # P_out = F_r + F_d - F_r F_d - theta F_r F_d (1-F_r)(1-F_d), the
    # expanded survival-copula composition recomputed from raw marginals.
    sys = replace(FIG8, theta=0.7, fading_m=2)
    q = OutageQuery(1.3)
    scales = derive_snr_scales(sys)
    f_r = relay_snr_cdf(scales.gamma_hat_r, 2, q.threshold)
    f_d = 1.0 - snr_survival_closed(*destination(sys), q.threshold)
    expanded = f_r + f_d - f_r * f_d - 0.7 * f_r * f_d * (1.0 - f_r) * (1.0 - f_d)
    assert outage_probability(sys, q) == pytest.approx(expanded, abs=1e-12)


def test_outage_theta_ordering_is_consistent():
    # With the threshold deep in the destination SNR's lower tail, positive
    # dependence thickens the joint lower tail of the product, so outage
    # increases with theta.  The ordering is consistent across the grid; its
    # direction is set by where the threshold sits relative to the median.
    q = OutageQuery(1.0)
    for rho in (0.1, 0.3, 0.6, 0.9):
        vals = [
            outage_probability(replace(FIG8, ps_factor=rho, theta=th), q)
            for th in (1.0, 0.0, -1.0)
        ]
        assert vals[0] > vals[1] > vals[2]


def test_outage_monotone_in_threshold_and_source_power():
    sys = replace(FIG8, theta=0.5)
    p = [outage_probability(sys, OutageQuery(t)) for t in (0.5, 1.0, 2.0)]
    assert p[0] < p[1] < p[2]
    q = OutageQuery(1.0)
    p = [
        outage_probability(replace(sys, source_power=ps), q) for ps in (5.0, 10.0, 20.0)
    ]
    assert p[0] > p[1] > p[2]


def test_asymptotic_sr_capacity_converges():
    errs = [
        abs(asymptotic_capacity_sr(s, 2) - ergodic_capacity_sr(s, 2))
        / ergodic_capacity_sr(s, 2)
        for s in (1e2, 1e3, 1e4)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01


def test_asymptotic_outage_accuracy():
    # Relay scale pinned to 1e3 by solving the SR distance, rest as FIG8.
    d_sr = ((1.0 - 0.3) * 10.0 / (1e-3 * 1e3)) ** (1.0 / 2.5)
    sys = replace(FIG8, dist_sr=d_sr, theta=1.0)
    q = OutageQuery(1.0)
    exact = outage_probability(sys, q)
    approx = asymptotic_outage(sys, q)
    assert abs(approx - exact) / exact < 0.01


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("theta", [-1.0, 0.5])
def test_asymptotic_outage_is_the_composition_with_the_polynomial_relay_cdf(m, theta):
    # F_r + F_d - F_r F_d - theta F_r F_d (1 - F_r)(1 - F_d), expanded by hand from
    # 1 - C(1 - F_r, 1 - F_d), with F_r the high-SNR polynomial.
    d_sr = ((1.0 - 0.3) * 10.0 / (1e-3 * 1e3)) ** (1.0 / 2.5)
    sys = replace(FIG8, dist_sr=d_sr, fading_m=m, theta=theta)
    t = 1.0
    f_r = (m * t / derive_snr_scales(sys).gamma_hat_r) ** m / math.factorial(m)
    f_d = 1.0 - snr_survival_closed(*destination(sys), t)
    expected = f_r + f_d - f_r * f_d - theta * f_r * f_d * (1.0 - f_r) * (1.0 - f_d)
    assert asymptotic_outage(sys, OutageQuery(t)) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_asymptotic_outage_out_of_regime():
    sys = replace(FIG8, noise_power=10.0)  # pushes the relay scale below 1
    with pytest.raises(OutOfRegimeError):
        asymptotic_outage(sys, OutageQuery(10.0))


def test_adjudication_report():
    adj = adjudicate_closed_forms(123.7436867, 6.5625, 2, 0.5)
    assert adj["sr_matching_variant"] == "1-m"
    assert adj["rd_matching_variant"] == "prefactor-times-bracket-no-pi"
    assert adj["sr_match_abs_error"] < 1e-6
    assert adj["rd_match_abs_error"] < 1e-6
    # The rejected readings really are discrepant, not just slightly worse.
    assert abs(adj["sr_upper_param_printed"] - adj["sr_quadrature"]) > 1e-3
    assert abs(adj["rd_prefactor_printed_pi"] - adj["rd_quadrature"]) > 1e-3
    assert adj["rd_prefactor_printed_pi"] == adj["rd_prefactor_no_pi"] / math.pi


# theta groups: one call for k thetas against k one-theta calls.
THETA_GROUPS = [(-1.0, 0.0, 1.0), tuple(float(t) for t in np.linspace(-1.0, 1.0, 11))]
RD_SCALES = np.array([[1e-8], [6.5625], [1e8]])
RATIOS = np.array([[0.1], [1.0], [10.0]])  # y / gamma_hat_d of the product distributions


def _rd_hop_calls(m):
    """Each RD-hop function as f(gamma_hat_d, theta, ratio), all three
    broadcasting: the capacities at gamma_hat_d, the product distributions
    at y = gamma_hat_d * ratio."""
    return {
        "ergodic_capacity_rd": lambda ghd, theta, ratio: ergodic_capacity_rd(ghd, m, theta),
        "capacity_rd_meijer": lambda ghd, theta, ratio: capacity_rd_meijer(ghd, m, theta),
        "snr_survival_closed": lambda ghd, theta, ratio: snr_survival_closed(ghd, m, theta, ghd * ratio),
        "snr_pdf_closed": lambda ghd, theta, ratio: snr_pdf_closed(ghd, m, theta, ghd * ratio),
        "product_cdf_general": lambda ghd, theta, ratio: product_cdf_general(ghd, m, theta, ghd * ratio),
    }


@pytest.mark.parametrize("ghd", RD_SCALES.ravel().tolist())
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_rd_hop_theta_group_agrees_with_one_theta_calls(ghd, m):
    # One call spans the RD_SCALES column (axis 0), three y per scale (axis 1)
    # and a theta group (axis 2).  theta enters only the FGM weight: the
    # theta-free terms are evaluated once per point, and the row of ghd moves
    # by rounding at most from the one-scale, one-theta calls (the
    # quadratures share their panels over the call).
    i = RD_SCALES.ravel().tolist().index(ghd)
    for name, call in _rd_hop_calls(m).items():
        for group in THETA_GROUPS:
            together = call(RD_SCALES[:, None], group, RATIOS)
            assert together.shape in ((3, 1, len(group)), (3, 3, len(group))), name
            for j, theta in enumerate(group):
                alone = np.ravel(call(ghd, theta, RATIOS))
                np.testing.assert_allclose(together[i, :, j], alone, rtol=1e-12, atol=0.0,
                                           err_msg=f"{name} theta={theta}")
                if name not in ("ergodic_capacity_rd", "product_cdf_general"):  # no bit moves
                    assert np.array_equal(together[i, :, j], alone), name


@pytest.mark.parametrize("ghd", RD_SCALES.ravel().tolist())
@pytest.mark.parametrize("m", [1, 3])
def test_rd_hop_one_theta_sequence_is_the_scalar_call_bit_for_bit(ghd, m):
    for name, call in _rd_hop_calls(m).items():
        for theta in (-1.0, 0.0, 0.3):
            alone = call(ghd, theta, RATIOS.ravel())
            assert isinstance(alone, float) or alone.shape == (3,), name
            one = call(ghd, [theta], RATIOS)
            assert np.array_equal(one[..., 0], alone), f"{name} theta={theta}"


@pytest.mark.parametrize("call", [snr_survival_closed, snr_pdf_closed, product_cdf_general])
def test_product_law_m_group_agrees_with_one_m_calls(call):
    # m is one more axis of the product law: one call over unsorted, repeated
    # m (axis 0), the RD_SCALES (axis 1), three y per scale (axis 2) and a
    # theta group (axis 3).  The closed forms take each m's points apart and
    # change no bit; the quadrature shares its panels over every m.
    ms = np.array([3, 1, 8, 1, 2]).reshape(-1, 1, 1)
    scales, ratios, thetas = RD_SCALES[None], RATIOS.T[None], np.array([-1.0, 0.0, 0.3, 1.0])
    together = call(scales[..., None], ms[..., None], thetas, (scales * ratios)[..., None])
    assert together.shape == (5, 3, 3, 4)
    for (i, j, k, l), value in np.ndenumerate(together):
        ghd = float(scales[0, j, 0])
        alone = call(ghd, int(ms[i, 0, 0]), thetas[l], ghd * float(ratios[0, 0, k]))
        if call is not product_cdf_general:
            assert value == alone, (i, j, k, l)
        else:
            assert value == pytest.approx(alone, rel=1e-12, abs=0.0), (i, j, k, l)


def _spoil_column(monkeypatch, module, rule, j):
    """Let ``module``'s quadrature ``rule`` report a large error for column j only."""
    real = getattr(module, rule)

    def spoiled(*args, **kwargs):
        val, err = real(*args, **kwargs)
        err = np.array(err, dtype=float)
        np.moveaxis(err, -1, 0)[j] = 0.5
        return val, err

    monkeypatch.setattr(module, rule, spoiled)


@pytest.mark.parametrize("name, message", [
    ("ergodic_capacity_rd", "RD capacity quadrature error 5.00e-01 at theta = 0.25"),
    ("capacity_rd_meijer", r"RD capacity contour \(m=2, theta=0.25\) at x=1.64062: "
                           "Mellin-Barnes quadrature error 5.00e-01"),
    ("product_cdf_general", "product CDF quadrature error estimate 5.00e-01 too large at theta = 0.25"),
])
def test_rd_hop_guard_names_the_failing_theta_of_a_group(monkeypatch, name, message):
    import swiptrelay.product_dist as product_dist_mod
    import swiptrelay.specfun as specfun_mod

    # The RD quadrature, the contour's trapezoidal rule and the product CDF.
    _spoil_column(monkeypatch, specfun_mod, "gauss_kronrod", 1)
    _spoil_column(monkeypatch, specfun_mod, "_trapezoid", 1)
    _spoil_column(monkeypatch, product_dist_mod, "gauss_kronrod", 1)
    with pytest.raises(QuadratureError, match=message):
        _rd_hop_calls(2)[name](6.5625, (-1.0, 0.25, 1.0), RATIOS)


def test_closed_form_guard_names_the_failing_theta_of_a_group():
    # At m = 3 and y = 1e-200 a Bessel term overflows where theta != 0, but
    # theta = 0 leaves those terms out and gives the survival 1.
    assert snr_survival_closed(6.5625, 3, [0.0], 1e-200).tolist() == [1.0]
    with pytest.raises(ClosedFormRangeError, match=r"\(theta = 0.5\) at y = 1e-200 escapes"):
        snr_survival_closed(6.5625, 3, (0.0, 0.5), 1e-200)


@pytest.mark.parametrize("outage", [outage_probability, outage_probability_quadrature,
                                    asymptotic_outage])
def test_outage_of_a_system_group_equals_each_system_alone(outage):
    # One destination survival call over the group's distinct thetas; each
    # system keeps its own relay CDF.  Swapping rho and kappa keeps
    # gamma_hat_d (kappa rho) bit for bit and moves gamma_hat_r.
    swapped = replace(BASE, ps_factor=BASE.eh_efficiency, eh_efficiency=BASE.ps_factor)
    assert derive_snr_scales(swapped).gamma_hat_d == derive_snr_scales(BASE).gamma_hat_d
    assert derive_snr_scales(swapped).gamma_hat_r != derive_snr_scales(BASE).gamma_hat_r
    systems = [replace(base, theta=t) for base, t in
               ((BASE, 0.5), (swapped, -1.0), (swapped, 0.5), (BASE, 0.0))]
    q = OutageQuery(0.5)
    together = outage(systems, q)
    assert len(together) == len(systems)
    for sys, value in zip(systems, together):
        assert value == outage(sys, q)
    # Any systems, each with its own query: gamma_hat_d, m and the threshold
    # differ, and one destination survival call serves them all.  The
    # closed forms change no bit; the quadrature shares its panels over the
    # group's thresholds.
    mixed = systems + [replace(BASE, noise_power=1e-3, fading_m=2, theta=0.5),
                       replace(BASE, ps_factor=0.7, fading_m=2, theta=-1.0),
                       replace(BASE, ps_factor=0.7, theta=1.0)]
    queries = [OutageQuery(t) for t in (0.5, 1.0, 2.0, 0.5, 1.0, 3.0, 0.25)]
    # Two gamma_hat_d at one m, theta and t: each system's survival is taken
    # at its own scale (taken at the first one's, the second moved by 5.8e-14).
    pair = [replace(BASE, fading_m=2, theta=0.5), replace(BASE, noise_power=1e-3, fading_m=2, theta=0.5)]
    for group, group_queries in ((mixed, queries), (pair, [OutageQuery(1.0)] * 2)):
        together = outage(group, group_queries)
        assert len(together) == len(group)
        for sys, query, value in zip(group, group_queries, together):
            if outage is outage_probability_quadrature:
                assert value == pytest.approx(outage(sys, query), rel=1e-12, abs=0.0)
            else:
                assert value == outage(sys, query)
