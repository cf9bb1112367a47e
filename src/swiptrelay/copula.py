"""The Farlie-Gumbel-Morgenstern (FGM) copula; theta = 0 is independence.

All evaluation functions accept scalars or numpy arrays and are pure.
Sampling uses conditional inversion with an explicit generator passed by
the caller; the module never owns random state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CopulaModel:
    """FGM copula on the unit square with dependence ``theta`` in [-1, 1]."""

    theta: float = 0.0

    def __post_init__(self) -> None:
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"FGM theta must lie in [-1, 1], got {self.theta}")


def product_copula() -> CopulaModel:
    """Independence: the FGM copula at theta = 0."""
    return CopulaModel(0.0)


def fgm_copula(theta: float) -> CopulaModel:
    return CopulaModel(theta)


def _check_unit(name, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return u


def _check_open_unit(name, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError(f"{name} must lie in the open interval (0, 1)")
    return u


def copula_cdf(c: CopulaModel, u1, u2):
    """C(u1, u2) = u1 u2 (1 + theta (1-u1)(1-u2))."""
    u1 = _check_unit("u1", u1)
    u2 = _check_unit("u2", u2)
    th = c.theta
    out = u1 * u2 * (1.0 + th * (1.0 - u1) * (1.0 - u2))
    return out if out.ndim else float(out)


def copula_density(c: CopulaModel, u1, u2):
    """Mixed partial of the copula: 1 + theta (1-2u1)(1-2u2)."""
    u1 = _check_unit("u1", u1)
    u2 = _check_unit("u2", u2)
    th = c.theta
    out = 1.0 + th * (1.0 - 2.0 * u1) * (1.0 - 2.0 * u2)
    return out if out.ndim else float(out)


def conditional_cdf(c: CopulaModel, u2, u1):
    """dC/du1 at (u1, u2), i.e. P(U2 <= u2 | U1 = u1)."""
    u1 = _check_open_unit("u1", u1)
    u2 = _check_unit("u2", u2)
    th = c.theta
    out = u2 * (1.0 + th * (1.0 - 2.0 * u1) * (1.0 - u2))
    return out if out.ndim else float(out)


def conditional_quantile(c: CopulaModel, t, u1):
    """Inverse of ``conditional_cdf`` in u2 for fixed u1.

    Solves a*u2^2 - (1+a)*u2 + t = 0 with a = theta*(1-2*u1), using the
    cancellation-free root 2t / ((1+a) + sqrt((1+a)^2 - 4at)).
    """
    u1 = _check_open_unit("u1", u1)
    t = _check_unit("t", t)
    a = c.theta * (1.0 - 2.0 * u1)
    one_plus_a = 1.0 + a
    disc = np.sqrt(one_plus_a * one_plus_a - 4.0 * a * t)
    denom = one_plus_a + disc
    out = np.where(denom > 0.0, 2.0 * t / np.where(denom > 0.0, denom, 1.0), t)
    return out if out.ndim else float(out)


def survival_copula_cdf(c: CopulaModel, u1, u2):
    """Survival copula u1 + u2 - 1 + C(1-u1, 1-u2); equals C itself for FGM."""
    u1 = _check_unit("u1", u1)
    u2 = _check_unit("u2", u2)
    out = u1 + u2 - 1.0 + copula_cdf(c, 1.0 - u1, 1.0 - u2)
    out = np.asarray(out)
    return out if out.ndim else float(out)


def sample_pair(c: CopulaModel, rng: np.random.Generator, size: int):
    """Draw two arrays (u1, u2) of length ``size`` with joint CDF ``copula_cdf``.

    Conditional inversion; uniform draws are taken from the open interval to
    keep the conditional operations within their domain.
    """
    u = rng.random((2, size))
    u1 = np.nextafter(u[0], 1.0)  # map 0.0 into (0, 1)
    u2 = conditional_quantile(c, u[1], u1)
    return u1, np.asarray(u2)
