"""Monte-Carlo engine: joint sampling laws, reproducibility, error scaling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swiptrelay.copula import copula_cdf, fgm_copula, sample_pair
from swiptrelay.fading import NakagamiPower, power_cdf, power_quantile
from swiptrelay.montecarlo import (
    McConfig,
    McEstimate,
    batch_stream,
    sample_fgm_powers,
    simulate_metrics,
    simulate_outage_survival_law,
)
from swiptrelay.product_dist import mean_snr_factor, product_cdf_general
from swiptrelay.swipt_metrics import (
    BASELINE,
    OutageQuery,
    destination_snr_model,
    outage_probability,
)
from swiptrelay.validation import dkw_epsilon

FIG8 = replace(BASELINE, noise_power=1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError):
        McConfig(samples=10, batch_size=11)
    with pytest.raises(ValueError):
        McConfig(samples=10, workers=0)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            McConfig(samples=10, seed=seed)
    assert McConfig(samples=10, seed=0).seed == 0


def test_estimate_from_moments():
    est = McEstimate.from_moments(4, 1.0, 3.0)
    assert est.stderr == pytest.approx(0.5)
    assert est.ci95_low == pytest.approx(1.0 - 1.96 * 0.5)
    assert est.ci95_high == pytest.approx(1.0 + 1.96 * 0.5)


def _inverted_powers(cop, marg, rng, n):
    """Oracle sampler: a copula pair by conditional inversion, mapped through
    the marginal quantile; it shares no code with ``sample_fgm_powers``."""
    u1, u2 = sample_pair(cop, rng, size=n)
    return power_quantile(marg, u1), power_quantile(marg, u2)


def test_joint_powers_independence():
    rng = batch_stream(41, 0)
    marg = NakagamiPower(2.0)
    g1, g2 = _inverted_powers(fgm_copula(0.0), marg, rng, 1_000_000)
    corr = np.corrcoef(g1, g2)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(g1.size)


def test_joint_powers_positive_dependence_mean():
    # m=1, theta=1: E[g1 g2] = 1.25.
    rng = batch_stream(43, 0)
    marg = NakagamiPower(1.0)
    n = 2_000_000
    g1, g2 = _inverted_powers(fgm_copula(1.0), marg, rng, n)
    prod = g1 * g2
    stderr = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - 1.25) < 4.0 * stderr


@pytest.mark.parametrize("m", [1.0, 2.5])
@pytest.mark.parametrize("theta", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_fgm_powers_follow_copula_and_margins(theta, m):
    n = 200_000
    marg = NakagamiPower(m, 1.3)
    cop = fgm_copula(theta)
    g1, g2 = sample_fgm_powers(cop, marg, batch_stream(53, 0), n)
    u1, u2 = power_cdf(marg, g1), power_cdf(marg, g2)
    for a in (0.2, 0.5, 0.8):
        for b in (0.2, 0.5, 0.8):
            c = copula_cdf(cop, a, b)
            emp = np.mean((u1 <= a) & (u2 <= b))
            assert abs(emp - c) < 4.0 * math.sqrt(c * (1.0 - c) / n)
    # Each margin, mapped through its CDF, is uniform inside the 99% DKW band.
    ranks = np.arange(1, n + 1) / n
    for u in (u1, u2):
        s = np.sort(u)
        assert max(np.max(ranks - s), np.max(s - (ranks - 1.0 / n))) <= dkw_epsilon(n)


def test_fgm_powers_at_the_wrong_theta_miss_the_copula():
    # Negative control for the check above: a draw at theta = +0.5 misses
    # the theta = -0.5 copula CDF at (0.5, 0.5) by 1/16, about 30 stderr.
    n = 200_000
    marg = NakagamiPower(2.0)
    g1, g2 = sample_fgm_powers(fgm_copula(0.5), marg, batch_stream(53, 0), n)
    c = copula_cdf(fgm_copula(-0.5), 0.5, 0.5)
    emp = np.mean((power_cdf(marg, g1) <= 0.5) & (power_cdf(marg, g2) <= 0.5))
    assert abs(emp - c) > 4.0 * math.sqrt(c * (1.0 - c) / n)


@pytest.mark.parametrize("m, theta", [(1, 1.0), (3, -1.0)])
def test_fgm_powers_product_mean(m, theta):
    # m=1, theta=1: E[g1 g2] = 1.25; in general the closed mean_snr_factor.
    n = 2_000_000
    marg = NakagamiPower(float(m))
    g1, g2 = sample_fgm_powers(fgm_copula(theta), marg, batch_stream(59, 0), n)
    prod = g1 * g2
    stderr = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - mean_snr_factor(m, theta)) < 4.0 * stderr


def test_fgm_powers_agree_with_conditional_inversion():
    n = 1_000_000
    marg = NakagamiPower(2.5)
    cop = fgm_copula(0.7)
    a = np.multiply(*sample_fgm_powers(cop, marg, batch_stream(61, 0), n))
    b = np.multiply(*_inverted_powers(cop, marg, batch_stream(61, 1), n))
    combined = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
    assert abs(a.mean() - b.mean()) < 4.0 * combined


def _physical_outage_quadrature(sys, threshold):
    """Outage under the simulated joint law, where both hop SNRs share the
    same source-relay power draw: 1 - P(g1 > a, g1 g2 > b)."""
    from scipy.integrate import quad

    from swiptrelay.copula import conditional_cdf
    from swiptrelay.fading import power_cdf, power_pdf
    from swiptrelay.swipt_metrics import derive_snr_scales

    scales = derive_snr_scales(sys)
    a = threshold / scales.gamma_hat_r
    b = threshold / scales.gamma_hat_d
    marg = NakagamiPower(float(sys.fading_m))
    cop = fgm_copula(sys.theta)

    def integrand(g):
        u1 = power_cdf(marg, g)
        if u1 >= 1.0:
            return 0.0
        return power_pdf(marg, g) * (1.0 - conditional_cdf(cop, power_cdf(marg, b / g), u1))

    surv = 0.0
    for lo, hi in ((a, max(a, math.sqrt(b))), (max(a, math.sqrt(b)), np.inf)):
        val, _ = quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-10, limit=300)
        surv += val
    return 1.0 - surv


def test_simulate_outage_matches_physical_law_quadrature():
    # The simulated joint law couples the hops through the shared first-hop
    # power; its outage differs from the survival-copula composition by about
    # F_r(t) * (1 - F_d(t)).  The simulator is validated against quadrature
    # of its own law; the composition gap is asserted as a known finding.
    for theta in (0.0, 1.0):
        sys = replace(FIG8, theta=theta)
        q = OutageQuery(1.0)
        est = simulate_metrics(sys, q, McConfig(samples=1_000_000, seed=5))
        p_phys = _physical_outage_quadrature(sys, q.threshold)
        assert abs(est["outage"].mean - p_phys) < 3.0 * est["outage"].stderr
        p_comp = outage_probability(sys, q)
        gap = p_comp - p_phys
        assert 0.0 < gap < 2.5e-3


def test_simulate_metrics_keys_and_ranges():
    est = simulate_metrics(
        replace(FIG8, theta=1.0), OutageQuery(1.0), McConfig(samples=100_000, seed=5)
    )
    assert set(est) == {"cap_sr", "cap_rd", "cap_min", "outage", "mean_snr_d"}
    assert 0.0 <= est["outage"].mean <= 1.0
    assert est["cap_min"].mean <= min(est["cap_sr"].mean, est["cap_rd"].mean) + 1e-12
    assert est["outage"].n == 100_000


def test_survival_law_outage_matches_closed_form():
    sys = replace(FIG8, theta=1.0)
    q = OutageQuery(1.0)
    f_d = product_cdf_general(destination_snr_model(sys), q.threshold)
    est = simulate_outage_survival_law(sys, q, McConfig(samples=1_000_000, seed=7), f_d)
    p = outage_probability(sys, q)
    assert abs(est.mean - p) < 3.0 * est.stderr


def test_worker_count_does_not_change_estimates():
    q = OutageQuery(1.0)
    a = simulate_metrics(FIG8, q, McConfig(samples=400_000, seed=9, workers=1, batch_size=50_000))
    b = simulate_metrics(FIG8, q, McConfig(samples=400_000, seed=9, workers=8, batch_size=50_000))
    for key in a:
        assert a[key] == b[key]


def test_outage_law_worker_count_does_not_change_estimate():
    sys = replace(FIG8, theta=-0.5)
    q = OutageQuery(1.0)
    f_d = product_cdf_general(destination_snr_model(sys), q.threshold)
    a, b = (simulate_outage_survival_law(
        sys, q, McConfig(samples=40_000, seed=9, workers=w, batch_size=5_000), f_d)
        for w in (1, 4))
    assert a == b
    assert a.n == 40_000


def test_same_seed_reproduces_different_seed_differs():
    q = OutageQuery(1.0)
    cfg = McConfig(samples=100_000, seed=11)
    a = simulate_metrics(FIG8, q, cfg)
    b = simulate_metrics(FIG8, q, cfg)
    c = simulate_metrics(FIG8, q, McConfig(samples=100_000, seed=12))
    assert a == b
    assert a["cap_rd"].mean != c["cap_rd"].mean


def test_batch_streams_are_independent():
    x = batch_stream(3, 0).random(4)
    y = batch_stream(3, 1).random(4)
    z = batch_stream(3, 0).random(4)
    assert np.array_equal(x, z)
    assert not np.array_equal(x, y)


def test_stderr_scales_with_samples():
    q = OutageQuery(1.0)
    small = simulate_metrics(FIG8, q, McConfig(samples=100_000, seed=13))
    big = simulate_metrics(FIG8, q, McConfig(samples=400_000, seed=13))
    ratio = small["cap_rd"].stderr / big["cap_rd"].stderr
    assert abs(ratio - 2.0) < 0.4
