"""Nakagami-m fading power marginal: a Gamma law with shape m and mean g-bar.

Vectorized over the power argument.  The quantile is scipy's inverse of the
regularized incomplete gamma function; the library's samplers draw Gamma
variates directly and never invert, and the tests use the quantile for their
conditional-inversion oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln


@dataclass(frozen=True)
class NakagamiPower:
    """Fading power |h|^2 of a Nakagami-m envelope: Gamma(m, mean_power/m)."""

    m: float
    mean_power: float = 1.0

    def __post_init__(self) -> None:
        # Written so that nan fails too: every comparison with nan is false.
        if not 0.5 <= self.m < math.inf:
            raise ValueError(f"shape m must be finite and >= 0.5, got {self.m}")
        if not 0.0 < self.mean_power < math.inf:
            raise ValueError(f"mean_power must be finite and positive, got {self.mean_power}")

    @property
    def rate(self) -> float:
        """m / mean_power, the exponential rate in the density."""
        return self.m / self.mean_power


def power_pdf(d: NakagamiPower, g):
    """Density of the fading power at g >= 0.

    At g = 0 the limit is returned for m >= 1; for m < 1 the density
    diverges there and evaluation at zero is refused.
    """
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("fading power must be non-negative")
    if d.m < 1.0 and np.any(g == 0.0):
        raise ValueError("density diverges at g = 0 for m < 1")
    r = d.rate
    log_norm = d.m * math.log(r) - gammaln(d.m)
    with np.errstate(divide="ignore"):
        out = np.where(
            g > 0.0,
            np.exp(log_norm + (d.m - 1.0) * np.log(np.where(g > 0.0, g, 1.0)) - r * g),
            r if d.m == 1.0 else 0.0,
        )
    return out if out.ndim else float(out)


def power_cdf(d: NakagamiPower, g):
    """Regularized lower incomplete gamma P(m, m g / g-bar)."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("fading power must be non-negative")
    with np.errstate(over="ignore"):  # rate * g = inf gives the limit 1
        out = gammainc(d.m, d.rate * g)
    return out if out.ndim else float(out)


def power_quantile(d: NakagamiPower, p):
    """Inverse CDF: ``scipy.special.gammaincinv(m, p)`` times g-bar / m.

    Accepts p in [0, 1); p = 1 has no finite preimage and raises.
    """
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise ValueError("probability must lie in [0, 1)")
    if np.any(p_arr == 1.0):
        raise ValueError("quantile at p = 1 is unbounded")
    scale = d.mean_power / d.m
    if d.m == 1.0:
        out = -np.log1p(-p_arr) * scale
    else:
        out = gammaincinv(d.m, p_arr) * scale
    return out if out.ndim else float(out)
