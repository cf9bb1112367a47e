"""Seeded, reproducible Monte-Carlo estimation of the link metrics.

``simulate_metrics`` and ``validate`` draw their FGM-coupled fading powers
exactly, with no quantile inversion (``sample_fgm_powers``).  The FGM density
is a mixture: with probability 1 - |theta| a pair is two independent Gamma
draws, and the other |theta| share takes order statistics of two more Gamma
draws, the same ones (theta > 0) or opposite ones (theta < 0).  The tests
keep copula conditional inversion (``copula.sample_pair`` then
``fading.power_quantile``) as its oracle.

Both estimators, ``simulate_metrics`` and ``simulate_outage_survival_law``,
run on one batch engine.  Randomness comes from counter-based Philox
streams: batch i draws from ``Philox(key=seed).jumped(i)``, so sub-streams
are provably non-overlapping and the estimates are bit-identical for a fixed
(seed, samples, batch size) regardless of how many workers process the
batches.  Batch moments are merged in batch order with Chan/Welford
combination.  ``simulate_metrics`` scores any list of systems and decides
itself what shares a draw: each batch makes one base draw per fading m,
every m starting from the batch's sub-stream start, so an m's estimates
do not depend on which other m are scored with it.  Every theta of an m
reuses its Gamma pair and uniforms, and only the partner Gammas of the
dependent share are drawn, once per distinct |theta|.  ``simulate_outage_survival_law``
likewise scores a list of cells, any m and theta, on each batch's one draw
of uniforms.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .copula import fgm_copula
from .fading import NakagamiPower
from .swipt_metrics import OutageQuery, SwiptSystem, derive_snr_scales, relay_snr_cdf


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 12345
    workers: int = 1
    batch_size: int | None = None  # None: min(1e6, samples), derived anew when samples change

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if not 1 <= self._batch <= self.samples:
            raise ValueError("need 1 <= batch_size <= samples")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def _batch(self) -> int:
        return min(1_000_000, self.samples) if self.batch_size is None else self.batch_size

    @property
    def n_batches(self) -> int:
        """Number of batches; batch i reads Philox sub-stream i."""
        return (self.samples + self._batch - 1) // self._batch


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    n: int

    @classmethod
    def from_moments(cls, n: int, mean: float, m2: float) -> "McEstimate":
        stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
        return cls(mean=mean, stderr=stderr, ci95_low=mean - 1.96 * stderr,
                   ci95_high=mean + 1.96 * stderr, n=n)


def batch_stream(seed: int, index: int) -> np.random.Generator:
    """Philox sub-stream for batch ``index`` of a run keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def _combine(acc: tuple[int, float, float], n_b: int, mean_b: float, m2_b: float):
    # Chan et al. pairwise moment combination, applied in batch order.
    n_a, mean_a, m2_a = acc
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * n_b / n
    m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
    return n, mean, m2


def _batch_moments(x: np.ndarray) -> tuple[int, float, float]:
    mean = float(x.mean())
    dev = x - mean
    dev *= dev
    return x.size, mean, float(np.sum(dev))


def _hit_moments(hit: np.ndarray) -> tuple[int, float, float]:
    """Moments of a 0/1 indicator from its hit count k: mean k/n, M2 k(n - k)/n."""
    n, k = hit.size, int(np.count_nonzero(hit))
    return n, k / n, k * (n - k) / n


def _estimate(cfg: McConfig, count: int, draw) -> list[dict[str, McEstimate]]:
    """Mean estimates of the quantities ``draw(rng, n)`` yields per batch, for ``count`` systems.

    Batch i draws its n = min(batch_size, samples left) values from
    ``batch_stream(cfg.seed, i)``; ``draw`` yields ``(j, metric, moments)``
    triples, reducing each array to its ``(n, mean, M2)`` as soon as it is
    made.  Batches run on ``cfg.workers`` threads and their moments merge
    strictly in batch order.  Returns one ``{metric: McEstimate}`` per system.
    """
    def run_batch(i: int) -> list:
        n_b = min(cfg._batch, cfg.samples - i * cfg._batch)
        return list(draw(batch_stream(cfg.seed, i), n_b))

    if cfg.workers == 1:
        results = [run_batch(i) for i in range(cfg.n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_batch, range(cfg.n_batches)))

    acc: list[dict] = [{} for _ in range(count)]
    for res in results:
        for j, metric, moments in res:
            acc[j][metric] = _combine(acc[j].get(metric, (0, 0.0, 0.0)), *moments)
    return [{metric: McEstimate.from_moments(*a) for metric, a in est.items()} for est in acc]


def sample_fgm_powers(thetas, marg: NakagamiPower, rng: np.random.Generator, size: int):
    """Exact FGM-coupled pairs of ``marg`` powers from order statistics, one per theta.

    The FGM density splits as the mixture
    (1 - |theta|) * 1 + |theta| * [1 + sgn(theta) (1-2u1)(1-2u2)],
    so a pair is two independent Gamma draws with probability 1 - |theta|.
    The bracket, at theta = +1 (-1), is the law of two pairs of iid draws
    whose same (opposite) order statistics are taken: g1 is the min or the
    max of its own pair with probability 1/2 each, and g2 is the same
    (opposite) order statistic of its pair.  So only the |theta| share of
    pairs, chosen per element by a uniform, draws its two partner Gammas;
    g1 needs no coin, since the pair is exchangeable and g1 > partner tells
    which order statistic it is.  Exact for any real m >= 0.5, with no
    inversion; 2 + 2|theta| Gamma draws and one uniform per pair.

    All thetas share one base draw from ``rng``: the (2, size) Gamma pair,
    then the ``size`` uniforms.  Each distinct |theta| draws its partner
    Gammas once, from the generator state saved after the uniforms, and its
    thetas (theta and -theta) take their own order statistics from them; so
    the ``(g1, g2)`` a theta yields is, bit for bit, what a one-theta call on
    a fresh ``rng`` gives.  A |theta|'s draw is freed after its last theta.
    g1 is the same array for every theta and must not be written to; each
    g2 is its own copy.
    """
    thetas = [fgm_copula(theta).theta for theta in thetas]
    scale = marg.mean_power / marg.m
    g = rng.gamma(marg.m, scale, size=(2, size))
    u = rng.random(size)
    shares = {a: u < a for a in dict.fromkeys(abs(theta) for theta in thetas)}
    del u
    after_uniforms = rng.bit_generator.state
    last = {abs(theta): i for i, theta in enumerate(thetas)}  # each |theta|'s last theta
    partners = {}  # per |theta| drawn: its dependent pairs, whether g1 beats its partner, g2's partner
    g1, g2 = g
    for i, theta in enumerate(thetas):
        a = abs(theta)
        if a not in partners:
            # The rows of a (2, k) partner draw, read one after the other.  g1
            # is the max of its pair exactly when it beats its partner.
            rng.bit_generator.state = after_uniforms
            dep = np.flatnonzero(shares.pop(a))  # integer indexing is far faster than a mask
            beats = g1[dep] > rng.gamma(marg.m, scale, dep.size)
            partners[a] = dep, beats, rng.gamma(marg.m, scale, dep.size)
        dep, beats, partner = partners.pop(a) if i == last[a] else partners[a]
        # g2 must be the same order statistic of its pair (theta > 0) or the other one.
        want_max2 = beats == (theta > 0.0)
        own = g2[dep]
        g2_theta = g2.copy()
        g2_theta[dep] = np.where((own > partner) == want_max2, own, partner)
        del dep, beats, partner, want_max2, own  # free them while the caller scores the pair
        yield g1, g2_theta


def simulate_metrics(
    systems: list[SwiptSystem], queries: list[OutageQuery | None], cfg: McConfig
) -> list[dict[str, McEstimate]]:
    """Estimate capacities, outage and mean destination SNR from joint draws.

    Each batch groups the systems by ``fading_m`` and, within an m, by theta.
    Every m group reads the batch's Philox sub-stream from its start: one
    base draw with ``sample_fgm_powers`` serves all its thetas, and each
    system (with its own query) is scored on its theta's pair.  A system
    whose query is None gets no outage estimate, and no outage indicator is
    formed for it.  The estimates of different systems thus share their
    draws and their errors are correlated; each one equals what a
    one-system call gives.  Per draw: gamma_r = ghat_r * g_sr and
    gamma_d = ghat_d * g_sr * g_rd share the same g_sr draw, the dependence
    the physical model induces between the hops.  Note the analytic outage
    composes the two marginals through the FGM survival copula instead; the
    gap between the two joint laws is a reported finding, not an estimator
    defect.

    Returns one ``{metric: McEstimate}`` per system, in order.
    """
    if not systems:
        raise ValueError("need at least one system")
    if len(queries) != len(systems):
        raise ValueError(f"need one query per system, got {len(queries)} for {len(systems)}")
    groups: dict[int, dict[float, list]] = {}
    for j, (s, q) in enumerate(zip(systems, queries)):
        groups.setdefault(s.fading_m, {}).setdefault(s.theta, []).append((j, derive_snr_scales(s), q))

    def draw(rng: np.random.Generator, n: int):
        start = rng.bit_generator.state
        for m, by_theta in groups.items():
            rng.bit_generator.state = start
            pairs = sample_fgm_powers(by_theta, NakagamiPower(float(m), 1.0), rng, n)
            for points, (g_sr, g_rd) in zip(by_theta.values(), pairs):
                for j, scales, q in points:
                    gamma_r = scales.gamma_hat_r * g_sr
                    gamma_d = scales.gamma_hat_d * g_sr
                    gamma_d *= g_rd
                    if q is not None:
                        hit = gamma_r <= q.threshold
                        hit |= gamma_d <= q.threshold
                        outage = _hit_moments(hit)
                        del hit
                    snr_d = _batch_moments(gamma_d)
                    # Each SNR becomes its capacity 0.5 log2(1 + gamma) in place.
                    for cap in (gamma_r, gamma_d):
                        np.log2(np.add(cap, 1.0, out=cap), out=cap)
                        cap *= 0.5
                    yield j, "cap_sr", _batch_moments(gamma_r)
                    yield j, "cap_rd", _batch_moments(gamma_d)
                    yield j, "cap_min", _batch_moments(np.minimum(gamma_r, gamma_d, out=gamma_r))
                    if q is not None:
                        yield j, "outage", outage
                    yield j, "mean_snr_d", snr_d
                    del gamma_r, gamma_d, cap  # free them before the next system's arrays
            del pairs, g_sr, g_rd  # free this m's draw before the next m draws

    return _estimate(cfg, len(systems), draw)


def simulate_outage_survival_law(
    systems: list[SwiptSystem],
    queries: list[OutageQuery],
    cfg: McConfig,
    destination_cdfs: list[float],
) -> list[McEstimate]:
    """Outage frequencies under the analytic joint law of the outage formula.

    Samples (v1, v2) from the FGM copula and tests v1 <= F_r(t) or
    v2 <= F_d(t); each destination CDF value is supplied by the caller (e.g.
    from the general product-CDF quadrature) so this estimator stays
    independent of the Bessel closed form it validates.  With v1 and a
    uniform w as ``copula.sample_pair`` draws them, v2 <= u_d exactly when
    w <= u_d (1 + theta (1 - u_d)(1 - 2 v1)), the conditional CDF at u_d, so
    that is tested and v2 is never formed.

    The uniforms do not depend on the system, so each batch draws them once
    and scores every (system, query, destination CDF) cell on them; each
    cell's estimate equals what a one-cell call gives.  Returns one
    ``McEstimate`` per system, in order.
    """
    if not systems:
        raise ValueError("need at least one system")
    if not len(systems) == len(queries) == len(destination_cdfs):
        raise ValueError(f"need one query and one destination CDF per system, got "
                         f"{len(queries)} and {len(destination_cdfs)} for {len(systems)}")
    cells = []
    for sys, q, u_d in zip(systems, queries, destination_cdfs):
        scales = derive_snr_scales(sys)
        u_r = relay_snr_cdf(scales.gamma_hat_r, sys.fading_m, q.threshold)
        cells.append((u_r, u_d, sys.theta * (1.0 - u_d)))

    def draw(rng: np.random.Generator, n: int):
        v1, w = rng.random((2, n))
        np.nextafter(v1, 1.0, out=v1)  # map 0.0 into (0, 1)
        tilt = 1.0 - 2.0 * v1
        for j, (u_r, u_d, slope) in enumerate(cells):
            bound = slope * tilt
            bound += 1.0
            bound *= u_d
            hit = w <= bound
            del bound
            hit |= v1 <= u_r
            yield j, "outage", _hit_moments(hit)

    return [est["outage"] for est in _estimate(cfg, len(systems), draw)]
