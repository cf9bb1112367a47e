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
    derive_snr_scales,
    outage_probability,
    relay_snr_cdf,
)
from swiptrelay.validation import dkw_epsilon

FIG8 = replace(BASELINE, noise_power=1e-3)


def destination(sys):
    """The destination SNR law of a system: (gamma_hat_d, m, theta)."""
    return derive_snr_scales(sys).gamma_hat_d, sys.fading_m, sys.theta


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


def _fgm_powers(theta, marg, rng, n):
    """One-theta draw of ``sample_fgm_powers``."""
    return next(sample_fgm_powers([theta], marg, rng, n))


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
    g1, g2 = _fgm_powers(theta, marg, batch_stream(53, 0), n)
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
    g1, g2 = _fgm_powers(0.5, marg, batch_stream(53, 0), n)
    c = copula_cdf(fgm_copula(-0.5), 0.5, 0.5)
    emp = np.mean((power_cdf(marg, g1) <= 0.5) & (power_cdf(marg, g2) <= 0.5))
    assert abs(emp - c) > 4.0 * math.sqrt(c * (1.0 - c) / n)


@pytest.mark.parametrize("m, theta", [(1, 1.0), (3, -1.0)])
def test_fgm_powers_product_mean(m, theta):
    # m=1, theta=1: E[g1 g2] = 1.25; in general the closed mean_snr_factor.
    n = 2_000_000
    marg = NakagamiPower(float(m))
    g1, g2 = _fgm_powers(theta, marg, batch_stream(59, 0), n)
    prod = g1 * g2
    stderr = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - mean_snr_factor(m, theta)) < 4.0 * stderr


def _one_theta_reference(theta, marg, rng, size):
    """The sampler for one theta, drawing its partner Gammas as one (2, k) array."""
    scale = marg.mean_power / marg.m
    g = rng.gamma(marg.m, scale, size=(2, size))
    dep = np.flatnonzero(rng.random(size) < abs(theta))
    partner = rng.gamma(marg.m, scale, size=(2, dep.size))
    want_max2 = (g[0, dep] > partner[0]) == (theta > 0.0)
    g2 = g[1, dep]
    g[1, dep] = np.where((g2 > partner[1]) == want_max2, g2, partner[1])
    return g[0], g[1]


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_multi_theta_draw_equals_one_theta_draws(m):
    # theta = 0 and +-1, a repeated |theta| and an unsorted order: each pair
    # is bit for bit the one-theta draw on a fresh stream.
    thetas = (0.5, -1.0, 0.0, 1.0, -0.5, 0.2)
    marg = NakagamiPower(m, 1.3)
    n = 50_000
    pairs = sample_fgm_powers(thetas, marg, batch_stream(67, 3), n)
    for theta, (g1, g2) in zip(thetas, pairs):
        for one in (_fgm_powers(theta, marg, batch_stream(67, 3), n),
                    _one_theta_reference(theta, marg, batch_stream(67, 3), n)):
            assert np.array_equal(g1, one[0]) and np.array_equal(g2, one[1])


class _CountingGammas:
    """A generator that counts its ``gamma`` calls and passes everything else on."""

    def __init__(self, rng):
        self.rng, self.gamma_calls = rng, 0

    def gamma(self, *args, **kwargs):
        self.gamma_calls += 1
        return self.rng.gamma(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_equal_magnitude_thetas_share_one_partner_draw():
    # theta and -theta take the same dependent share and the same partner
    # Gammas; only their order statistics differ.
    rng = _CountingGammas(batch_stream(67, 3))
    for _ in sample_fgm_powers((-0.7, 0.7), NakagamiPower(2), rng, 1000):
        pass
    assert rng.gamma_calls == 3  # the base pair, then the two rows of one partner draw


def test_fgm_powers_agree_with_conditional_inversion():
    n = 1_000_000
    marg = NakagamiPower(2.5)
    cop = fgm_copula(0.7)
    a = np.multiply(*_fgm_powers(0.7, marg, batch_stream(61, 0), n))
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
        est = simulate_metrics([sys], [q], McConfig(samples=1_000_000, seed=5))[0]
        p_phys = _physical_outage_quadrature(sys, q.threshold)
        assert abs(est["outage"].mean - p_phys) < 3.0 * est["outage"].stderr
        p_comp = outage_probability(sys, q)
        gap = p_comp - p_phys
        assert 0.0 < gap < 2.5e-3


def test_simulate_metrics_keys_and_ranges():
    est = simulate_metrics(
        [replace(FIG8, theta=1.0)], [OutageQuery(1.0)], McConfig(samples=100_000, seed=5)
    )[0]
    assert set(est) == {"cap_sr", "cap_rd", "cap_min", "outage", "mean_snr_d"}
    assert 0.0 <= est["outage"].mean <= 1.0
    assert est["cap_min"].mean <= min(est["cap_sr"].mean, est["cap_rd"].mean) + 1e-12
    assert est["outage"].n == 100_000


def test_survival_law_outage_matches_closed_form():
    sys = replace(FIG8, theta=1.0)
    q = OutageQuery(1.0)
    f_d = product_cdf_general(*destination(sys), q.threshold)
    est, = simulate_outage_survival_law([sys], [q], McConfig(samples=1_000_000, seed=7), [f_d])
    p = outage_probability(sys, q)
    assert abs(est.mean - p) < 3.0 * est.stderr


@pytest.mark.parametrize("theta", [-1.0, -0.6, 0.0, 0.2, 1.0])
def test_outage_law_test_equals_conditional_inversion(theta):
    # The estimator tests w against the conditional CDF at u_d; inverting the
    # conditional CDF for v2 (copula.sample_pair) on the same stream gives
    # the same hits.
    sys = replace(FIG8, theta=theta)
    q = OutageQuery(1.0)
    scales = derive_snr_scales(sys)
    u_r = relay_snr_cdf(scales.gamma_hat_r, sys.fading_m, q.threshold)
    u_d = product_cdf_general(*destination(sys), q.threshold)
    n = 200_000
    est, = simulate_outage_survival_law([sys], [q], McConfig(samples=n, seed=17), [u_d])
    v1, v2 = sample_pair(fgm_copula(theta), batch_stream(17, 0), size=n)
    hits = int(np.count_nonzero((v1 <= u_r) | (v2 <= u_d)))
    assert 0 < hits < n
    assert est == McEstimate.from_moments(n, hits / n, hits * (n - hits) / n)


def test_worker_count_does_not_change_estimates():
    q = OutageQuery(1.0)
    a = simulate_metrics([FIG8], [q], McConfig(samples=400_000, seed=9, workers=1, batch_size=50_000))[0]
    b = simulate_metrics([FIG8], [q], McConfig(samples=400_000, seed=9, workers=8, batch_size=50_000))[0]
    for key in a:
        assert a[key] == b[key]


@pytest.mark.parametrize("workers", [1, 4])
def test_grouped_estimates_equal_one_system_calls(workers):
    # One draw per batch scores the whole group; each system's estimates are
    # exactly what a call for that system alone gives.
    systems = [replace(FIG8, ps_factor=rho, fading_m=2, theta=-0.5) for rho in (0.2, 0.5, 0.8)]
    queries = [OutageQuery(t) for t in (0.5, 1.0, 4.0)]
    cfg = McConfig(samples=40_000, seed=21, workers=workers, batch_size=5_000)
    grouped = simulate_metrics(systems, queries, cfg)
    assert len(grouped) == 3
    for sys, q, est in zip(systems, queries, grouped):
        assert est == simulate_metrics([sys], [q], cfg)[0]
        assert list(est) == ["cap_sr", "cap_rd", "cap_min", "outage", "mean_snr_d"]


def test_no_query_forms_no_outage_and_keeps_the_other_estimates():
    # A None query skips the outage indicator; the other four estimates are
    # exactly those of the same system scored with a query, alone or grouped.
    systems = [replace(FIG8, ps_factor=rho, fading_m=2, theta=0.5) for rho in (0.3, 0.6)]
    cfg = McConfig(samples=20_000, seed=23, batch_size=5_000)
    with_query = simulate_metrics(systems, [OutageQuery(1.0)] * 2, cfg)
    mixed = simulate_metrics(systems, [None, OutageQuery(1.0)], cfg)
    assert list(mixed[0]) == ["cap_sr", "cap_rd", "cap_min", "mean_snr_d"]
    assert mixed[0] == {k: v for k, v in with_query[0].items() if k != "outage"}
    assert mixed[1] == with_query[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_m_call_equals_one_call_per_m(workers):
    # Each m group of a batch reads the batch's sub-stream from its start, so
    # one call over several m gives every system what the call for its m alone gives.
    systems = [replace(FIG8, ps_factor=rho, fading_m=m, theta=th)
               for rho, m, th in ((0.2, 2, -0.5), (0.5, 3, -0.5), (0.7, 1, 1.0), (0.8, 2, 0.5), (0.3, 3, 0.0))]
    queries = [OutageQuery(1.0), None, OutageQuery(0.5), OutageQuery(4.0), OutageQuery(1.0)]
    cfg = McConfig(samples=40_000, seed=27, workers=workers, batch_size=5_000)
    assert cfg.n_batches == 8
    mixed = simulate_metrics(systems, queries, cfg)
    for m in (1, 2, 3):
        members = [j for j, s in enumerate(systems) if s.fading_m == m]
        alone = simulate_metrics([systems[j] for j in members], [queries[j] for j in members], cfg)
        assert [mixed[j] for j in members] == alone


@pytest.mark.parametrize("workers", [1, 4])
def test_mixed_theta_group_equals_one_system_calls(workers):
    # Systems of one m with different thetas share each batch's base draw;
    # each one's estimates are still exactly those of a call for it alone.
    thetas = (0.5, -1.0, 0.0, 0.5, -0.5)
    systems = [replace(FIG8, ps_factor=rho, fading_m=2, theta=th)
               for rho, th in zip((0.2, 0.3, 0.5, 0.7, 0.8), thetas)]
    queries = [OutageQuery(1.0), None, OutageQuery(0.5), OutageQuery(4.0), OutageQuery(1.0)]
    cfg = McConfig(samples=40_000, seed=25, workers=workers, batch_size=5_000)
    assert cfg.n_batches == 8
    grouped = simulate_metrics(systems, queries, cfg)
    for sys, q, est in zip(systems, queries, grouped):
        assert est == simulate_metrics([sys], [q], cfg)[0]
    assert list(grouped[0]) == ["cap_sr", "cap_rd", "cap_min", "outage", "mean_snr_d"]
    assert list(grouped[1]) == ["cap_sr", "cap_rd", "cap_min", "mean_snr_d"]


def test_outage_law_worker_count_does_not_change_estimate():
    sys = replace(FIG8, theta=-0.5)
    q = OutageQuery(1.0)
    f_d = product_cdf_general(*destination(sys), q.threshold)
    a, b = (simulate_outage_survival_law(
        [sys], [q], McConfig(samples=40_000, seed=9, workers=w, batch_size=5_000), [f_d])[0]
        for w in (1, 4))
    assert a == b
    assert a.n == 40_000


@pytest.mark.parametrize("workers", [1, 4])
def test_outage_law_cells_equal_one_cell_calls(workers):
    # Every cell is scored on each batch's one uniform draw; each estimate is
    # exactly what a call for that cell alone gives.
    systems = [replace(FIG8, ps_factor=rho, fading_m=m, theta=th)
               for rho, m, th in ((0.2, 1, -1.0), (0.5, 2, 0.0), (0.7, 1, 0.2), (0.9, 3, 1.0))]
    queries = [OutageQuery(t) for t in (1.0, 0.5, 2.0, 1.0)]
    f_ds = [product_cdf_general(*destination(s), q.threshold)
            for s, q in zip(systems, queries)]
    cfg = McConfig(samples=30_000, seed=27, workers=workers, batch_size=4_000)
    assert cfg.n_batches == 8
    cells = simulate_outage_survival_law(systems, queries, cfg, f_ds)
    assert len(cells) == 4
    for sys, q, f_d, est in zip(systems, queries, f_ds, cells):
        assert est == simulate_outage_survival_law([sys], [q], cfg, [f_d])[0]
        assert est.n == 30_000
    assert len({est.mean for est in cells}) == 4


def test_outage_law_needs_one_query_and_cdf_per_system():
    cfg = McConfig(samples=1_000)
    with pytest.raises(ValueError, match="at least one system"):
        simulate_outage_survival_law([], [], cfg, [])
    with pytest.raises(ValueError, match="one query and one destination CDF per system"):
        simulate_outage_survival_law([FIG8, FIG8], [OutageQuery(1.0)] * 2, cfg, [0.5])


def test_same_seed_reproduces_different_seed_differs():
    q = OutageQuery(1.0)
    cfg = McConfig(samples=100_000, seed=11)
    a = simulate_metrics([FIG8], [q], cfg)[0]
    b = simulate_metrics([FIG8], [q], cfg)[0]
    c = simulate_metrics([FIG8], [q], McConfig(samples=100_000, seed=12))[0]
    assert a == b
    assert a["cap_rd"].mean != c["cap_rd"].mean


def test_batch_streams_are_independent():
    x = batch_stream(3, 0).random(4)
    y = batch_stream(3, 1).random(4)
    z = batch_stream(3, 0).random(4)
    assert np.array_equal(x, z)
    assert not np.array_equal(x, y)


def test_whole_seed_and_batch_index_reach_the_stream():
    # Seeds 0 and 2**64 agree in their low 64 bits, 2**128 - 1 sets every bit:
    # a seed cut to 64 bits, or a dropped index, makes two of these draws equal.
    keys = [(s, i) for s in (0, 2**64, 2**128 - 1) for i in (0, 1, 2)]
    first = {key: batch_stream(*key).random(2) for key in keys}
    for key in keys:
        assert np.array_equal(batch_stream(*key).random(2), first[key])
    assert len({tuple(draw) for draw in first.values()}) == len(keys)


def test_stderr_scales_with_samples():
    q = OutageQuery(1.0)
    small = simulate_metrics([FIG8], [q], McConfig(samples=100_000, seed=13))[0]
    big = simulate_metrics([FIG8], [q], McConfig(samples=400_000, seed=13))[0]
    ratio = small["cap_rd"].stderr / big["cap_rd"].stderr
    assert abs(ratio - 2.0) < 0.4
