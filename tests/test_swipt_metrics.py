"""System metrics: SNR scales, capacities, outage, asymptotics, adjudication."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1

from swiptrelay.montecarlo import McConfig, batch_stream, simulate_metrics
from swiptrelay.copula import copula_cdf, fgm_copula, sample_pair
from swiptrelay.fading import NakagamiPower, power_quantile
from swiptrelay.product_dist import snr_pdf_closed, snr_survival_closed
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
    destination_snr_model,
    ergodic_capacity_rd,
    ergodic_capacity_sr,
    ergodic_capacity_system,
    outage_probability,
    outage_probability_quadrature,
    relay_snr_cdf,
)


FIG8 = replace(BASE, noise_power=1e-3)


def test_system_validation():
    with pytest.raises(ValueError):
        replace(BASE, ps_factor=1.0)
    with pytest.raises(ValueError):
        replace(BASE, eh_efficiency=0.0)
    with pytest.raises(ValueError):
        replace(BASE, theta=1.5)
    with pytest.raises(ValueError):
        replace(BASE, fading_m=0)


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


def test_rd_quadrature_refuses_nan_error_estimate(monkeypatch):
    # A nan estimate once passed the "err > bound" check.
    import swiptrelay.swipt_metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "quad", lambda *args, **kwargs: (math.nan, math.nan))
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
    assert snr_survival_closed(destination_snr_model(sys), threshold) == 0.0
    assert snr_pdf_closed(destination_snr_model(sys), threshold) == 0.0


def test_relay_cdf_is_gamma_cdf():
    assert relay_snr_cdf(10.0, 1, 10.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert relay_snr_cdf(10.0, 2, 0.0) == 0.0


def test_sr_capacity_rayleigh_identity():
    # m=1: C = e^{1/s} E_1(1/s) / (2 ln 2).
    for s in (1.0, 10.0, 123.7436867):
        exact = math.exp(1.0 / s) * exp1(1.0 / s) / (2.0 * math.log(2.0))
        assert ergodic_capacity_sr(s, 1) == pytest.approx(exact, abs=1e-6)


def test_sr_capacity_meijer_matches_quadrature():
    for m, s in ((1, 10.0), (2, 123.74), (3, 50.0)):
        assert capacity_sr_meijer(s, m) == pytest.approx(
            ergodic_capacity_sr(s, m), abs=1e-9
        )


def test_sr_capacity_mc_oracle():
    s, m, n = 123.7436867, 2, 1_000_000
    rng = np.random.Generator(np.random.Philox(key=31))
    g = rng.gamma(shape=m, scale=s / m, size=n)
    cap = 0.5 * np.log2(1.0 + g)
    stderr = cap.std(ddof=1) / math.sqrt(n)
    assert abs(ergodic_capacity_sr(s, m) - cap.mean()) < 3.0 * stderr


def test_rd_capacity_meijer_matches_quadrature():
    for m, theta in ((1, 0.0), (1, 1.0), (2, -1.0), (3, 0.5)):
        assert capacity_rd_meijer(6.5625, m, theta) == pytest.approx(
            ergodic_capacity_rd(6.5625, m, theta), abs=1e-9
        )


@pytest.mark.parametrize("ghd", [1e-4, 1e-5, 1e-6, 1e-8])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("theta", [-1.0, 1.0])
def test_rd_capacity_quadrature_at_small_scale(ghd, m, theta):
    # The capacity is about ghd * mean_snr_factor / (2 ln 2) here; an
    # integration interval that ignores the scale returned ~1e-53 instead.
    assert ergodic_capacity_rd(ghd, m, theta) == pytest.approx(
        capacity_rd_meijer(ghd, m, theta), rel=1e-9
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
    out = ergodic_capacity_system(sys)
    assert out["min_of_means"] == min(out["capacity_sr"], out["capacity_rd"])
    # The other ordering, E[min], is the Monte-Carlo cap_min; it cannot
    # exceed the minimum of the means.
    mc = simulate_metrics(sys, OutageQuery(1.0), McConfig(samples=20_000, seed=61))
    assert mc["cap_min"].mean <= out["min_of_means"] + 3.0 * mc["cap_min"].stderr


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
    f_d = 1.0 - snr_survival_closed(destination_snr_model(sys), q.threshold)
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
