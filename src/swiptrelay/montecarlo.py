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
combination.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .copula import CopulaModel, fgm_copula, sample_pair
from .fading import NakagamiPower
from .swipt_metrics import OutageQuery, SwiptSystem, derive_snr_scales, relay_snr_cdf


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 12345
    workers: int = 1
    batch_size: int | None = None  # defaults to min(1e6, samples)

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", min(1_000_000, self.samples))
        if self.batch_size < 1 or self.batch_size > self.samples:
            raise ValueError("need 1 <= batch_size <= samples")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def n_batches(self) -> int:
        """Number of batches; batch i reads Philox sub-stream i."""
        return (self.samples + self.batch_size - 1) // self.batch_size


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
    m2 = float(np.sum((x - mean) ** 2))
    return x.size, mean, m2


def _estimate(cfg: McConfig, draw) -> dict[str, McEstimate]:
    """Mean estimates of the named arrays ``draw(rng, n)`` returns per batch.

    Batch i draws its n = min(batch_size, samples left) values from
    ``batch_stream(cfg.seed, i)``; batches run on ``cfg.workers`` threads and
    their moments merge strictly in batch order.
    """
    def run_batch(i: int) -> dict[str, tuple[int, float, float]]:
        n_b = min(cfg.batch_size, cfg.samples - i * cfg.batch_size)
        return {k: _batch_moments(v) for k, v in draw(batch_stream(cfg.seed, i), n_b).items()}

    if cfg.workers == 1:
        results = [run_batch(i) for i in range(cfg.n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_batch, range(cfg.n_batches)))

    out: dict[str, McEstimate] = {}
    for key in results[0]:
        acc = (0, 0.0, 0.0)
        for res in results:
            acc = _combine(acc, *res[key])
        out[key] = McEstimate.from_moments(*acc)
    return out


def sample_fgm_powers(
    copula: CopulaModel,
    marg: NakagamiPower,
    rng: np.random.Generator,
    size: int,
):
    """Exact FGM-coupled pair of ``marg`` powers from order statistics.

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
    """
    scale = marg.mean_power / marg.m
    g = rng.gamma(marg.m, scale, size=(2, size))
    dep = np.flatnonzero(rng.random(size) < abs(copula.theta))
    partner = rng.gamma(marg.m, scale, size=(2, dep.size))
    # g1 is the max of its pair exactly when it beats its partner; g2 must be
    # the same order statistic of its pair (theta > 0) or the other one.
    want_max2 = (g[0, dep] > partner[0]) == (copula.theta > 0.0)
    g2 = g[1, dep]
    g[1, dep] = np.where((g2 > partner[1]) == want_max2, g2, partner[1])
    return g[0], g[1]


def simulate_metrics(sys: SwiptSystem, q: OutageQuery, cfg: McConfig) -> dict[str, McEstimate]:
    """Estimate capacities, outage and mean destination SNR from joint draws.

    Each batch draws its fading-power pairs with ``sample_fgm_powers``.  Per
    draw: gamma_r = ghat_r * g_sr and gamma_d = ghat_d * g_sr * g_rd share
    the same g_sr draw, the dependence the physical model induces between
    the hops.  Note the analytic outage composes the two marginals through
    the FGM survival copula instead; the gap between the two joint laws is a
    reported finding, not an estimator defect.
    """
    scales = derive_snr_scales(sys)
    marg = NakagamiPower(float(sys.fading_m), 1.0)
    cop = fgm_copula(sys.theta)

    def draw(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
        g_sr, g_rd = sample_fgm_powers(cop, marg, rng, n)
        gamma_r = scales.gamma_hat_r * g_sr
        gamma_d = scales.gamma_hat_d * g_sr * g_rd
        cap_sr = 0.5 * np.log2(1.0 + gamma_r)
        cap_rd = 0.5 * np.log2(1.0 + gamma_d)
        return {
            "cap_sr": cap_sr,
            "cap_rd": cap_rd,
            "cap_min": np.minimum(cap_sr, cap_rd),
            "outage": (np.minimum(gamma_r, gamma_d) <= q.threshold).astype(float),
            "mean_snr_d": gamma_d,
        }

    return _estimate(cfg, draw)


def simulate_outage_survival_law(
    sys: SwiptSystem,
    q: OutageQuery,
    cfg: McConfig,
    destination_cdf_at_threshold: float,
) -> McEstimate:
    """Outage frequency under the analytic joint law of the outage formula.

    Samples (v1, v2) from the FGM copula and tests v1 <= F_r(t) or
    v2 <= F_d(t); the destination CDF value is supplied by the caller (e.g.
    from the general product-CDF quadrature) so this estimator stays
    independent of the Bessel closed form it validates.
    """
    scales = derive_snr_scales(sys)
    u_r = relay_snr_cdf(scales.gamma_hat_r, sys.fading_m, q.threshold)
    u_d = destination_cdf_at_threshold
    cop = fgm_copula(sys.theta)

    def draw(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
        v1, v2 = sample_pair(cop, rng, size=n)
        return {"outage": ((v1 <= u_r) | (v2 <= u_d)).astype(float)}

    return _estimate(cfg, draw)["outage"]
