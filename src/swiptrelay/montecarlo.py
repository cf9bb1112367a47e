"""Seeded, reproducible Monte-Carlo estimation of the link metrics.

``simulate_metrics`` draws its FGM-coupled fading powers exactly from order
statistics of Gamma draws (``sample_fgm_powers``), with no quantile
inversion; ``sample_joint_powers`` keeps the copula conditional-inversion
route as an independent oracle for the tests and ``validate``.

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
from .fading import NakagamiPower, power_quantile
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
    n_batches = (cfg.samples + cfg.batch_size - 1) // cfg.batch_size

    def run_batch(i: int) -> dict[str, tuple[int, float, float]]:
        n_b = min(cfg.batch_size, cfg.samples - i * cfg.batch_size)
        return {k: _batch_moments(v) for k, v in draw(batch_stream(cfg.seed, i), n_b).items()}

    if cfg.workers == 1:
        results = [run_batch(i) for i in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_batch, range(n_batches)))

    out: dict[str, McEstimate] = {}
    for key in results[0]:
        acc = (0, 0.0, 0.0)
        for res in results:
            acc = _combine(acc, *res[key])
        out[key] = McEstimate.from_moments(*acc)
    return out


def sample_joint_powers(
    copula: CopulaModel,
    m1: NakagamiPower,
    m2: NakagamiPower,
    rng: np.random.Generator,
    size: int,
):
    """Dependent fading-power arrays of length ``size`` by copula conditional inversion."""
    u1, u2 = sample_pair(copula, rng, size=size)
    return power_quantile(m1, u1), power_quantile(m2, u2)


def sample_fgm_powers(
    copula: CopulaModel,
    marg: NakagamiPower,
    rng: np.random.Generator,
    size: int,
):
    """Exact FGM-coupled pair of ``marg`` powers from order statistics.

    The FGM density 1 + theta (1-2u1)(1-2u2) equals the mixture
    (1+theta)/4 (f_min f_min + f_max f_max) + (1-theta)/4 (f_min f_max +
    f_max f_min), where f_min and f_max are the densities of the min and the
    max of two iid draws.  So a fair coin makes g1 the min or the max of its
    own pair of Gamma draws, and g2 takes the same order statistic of its
    pair with probability (1+theta)/2.  Exact for any m, with no inversion.
    """
    g = rng.gamma(marg.m, marg.mean_power / marg.m, size=(4, size))
    u = rng.random((2, size))
    take_max1 = u[0] < 0.5
    take_max2 = take_max1 == (u[1] < 0.5 * (1.0 + copula.theta))
    # Picking the first draw exactly when "take the max" agrees with "the
    # first draw is the larger" selects the wanted order statistic.
    g1 = np.where(take_max1 == (g[0] > g[1]), g[0], g[1])
    g2 = np.where(take_max2 == (g[2] > g[3]), g[2], g[3])
    return g1, g2


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
