"""Power-splitting SWIPT relay model and its performance metrics.

The quadrature of each defining integral is the authoritative value.  The
Bessel/Meijer-G closed forms are evaluated alongside; two printed closed
forms carry ambiguities, so ``adjudicate_closed_forms`` reports which
reading matches quadrature (see the convention notes in each docstring).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainccinv, gammaln, psi
from scipy.special import loggamma as _loggamma

from . import specfun
from .copula import copula_cdf, fgm_copula
from .fading import NakagamiPower, power_cdf
from .product_dist import (
    EndToEndSnrModel,
    closed_form_model,
    product_cdf_general,
    snr_pdf_closed,
    snr_survival_closed,
)

_LN2 = math.log(2.0)


class OutOfRegimeError(ValueError):
    """High-SNR asymptotic requested where its premise fails."""


@dataclass(frozen=True)
class SwiptSystem:
    """Physical parameters of the dual-hop PSR link."""

    source_power: float        # P_S, watts
    noise_power: float         # N, watts
    ps_factor: float           # rho in (0, 1): share harvested
    eh_efficiency: float       # kappa in (0, 1]
    dist_sr: float             # meters
    dist_rd: float             # meters
    pathloss_exp: float        # alpha
    fading_m: int = 1
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.source_power <= 0 or self.noise_power <= 0:
            raise ValueError("powers must be strictly positive")
        if not 0.0 < self.ps_factor < 1.0:
            raise ValueError(f"ps_factor must lie in (0, 1), got {self.ps_factor}")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError(f"eh_efficiency must lie in (0, 1], got {self.eh_efficiency}")
        if self.dist_sr <= 0 or self.dist_rd <= 0:
            raise ValueError("distances must be strictly positive")
        if self.fading_m < 1 or self.fading_m != int(self.fading_m):
            raise ValueError(f"fading_m must be an integer >= 1, got {self.fading_m}")
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [-1, 1], got {self.theta}")


# The reference operating point: config files start from it, ``validate``
# runs its (m, theta) matrix on it and the tests build their cases from it.
BASELINE = SwiptSystem(
    source_power=10.0,
    noise_power=1e-2,
    ps_factor=0.3,
    eh_efficiency=0.7,
    dist_sr=2.0,
    dist_rd=2.0,
    pathloss_exp=2.5,
)


@dataclass(frozen=True)
class DerivedSnrScales:
    """Deterministic SNR scale factors at relay and destination."""

    gamma_hat_r: float
    gamma_hat_d: float


@dataclass(frozen=True)
class OutageQuery:
    """Linear SNR threshold."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and non-negative, got {self.threshold}")


def derive_snr_scales(sys: SwiptSystem) -> DerivedSnrScales:
    """gamma_hat_r = (1-rho) P_S / (d_sr^alpha N); gamma_hat_d adds kappa*rho and both path losses."""
    pl_sr = sys.dist_sr**sys.pathloss_exp
    pl_rd = sys.dist_rd**sys.pathloss_exp
    ghr = (1.0 - sys.ps_factor) * sys.source_power / (pl_sr * sys.noise_power)
    ghd = sys.eh_efficiency * sys.ps_factor * sys.source_power / (pl_sr * pl_rd * sys.noise_power)
    return DerivedSnrScales(gamma_hat_r=ghr, gamma_hat_d=ghd)


def destination_snr_model(sys: SwiptSystem) -> EndToEndSnrModel:
    scales = derive_snr_scales(sys)
    return closed_form_model(scales.gamma_hat_d, sys.fading_m, fgm_copula(sys.theta))


def relay_snr_cdf(gamma_hat_r: float, m: int, gamma: float) -> float:
    """CDF of the relay SNR: the Nakagami-m power law with mean gamma_hat_r."""
    if gamma < 0.0:
        raise ValueError("SNR must be non-negative")
    return power_cdf(NakagamiPower(m, gamma_hat_r), gamma)


def ergodic_capacity_sr(gamma_hat_r: float, m: int) -> float:
    """SR-hop ergodic capacity (bits/channel use, incl. the half-duplex 1/2).

    Authoritative route: adaptive quadrature of E[ln(1+gamma)]/(2 ln 2) with
    gamma ~ Gamma(m, gamma_hat_r/m).
    """
    if gamma_hat_r <= 0.0:
        raise ValueError("gamma_hat_r must be positive")
    s, small, ln_gamma_m = gamma_hat_r / m, min(1.0, gamma_hat_r), float(gammaln(m))

    def integrand(u: float) -> float:
        # In logs, so u ** (m - 1) and Gamma(m) cannot overflow at large m.
        return math.log1p(s * u) * math.exp((m - 1) * math.log(u) - u - ln_gamma_m)

    # full_output keeps quad's roundoff warnings (near gamma_hat_r = 1e9 at m = 1) quiet;
    # the error bound below is the check instead.  Both tolerances shrink with
    # the capacity, about gamma_hat_r / (2 ln 2) below 1.
    val, err, *_ = quad(integrand, 0.0, np.inf, epsabs=1e-12 * small, epsrel=1e-11, limit=300,
                        full_output=1)
    if not err <= 1e-8 * max(abs(val), small):
        raise specfun.QuadratureError(f"SR capacity quadrature error {err:.2e}")
    return val / (2.0 * _LN2)


def capacity_sr_meijer(gamma_hat_r: float, m: int, printed_variant: bool = False) -> float:
    """SR capacity via the G^{1,3}_{3,2} closed form.

    The default reading uses upper parameter 1-m, which matches quadrature;
    ``printed_variant=True`` evaluates the 1 - m/gamma_hat_r reading instead.
    """
    a1 = 1.0 - m / gamma_hat_r if printed_variant else 1.0 - float(m)
    g = specfun.meijer_g((a1, 1.0, 1.0), gamma_hat_r / m)
    return g / (2.0 * math.exp(gammaln(m)) * _LN2)


def ergodic_capacity_rd(gamma_hat_d: float, m: int, theta: float) -> float:
    """RD-hop ergodic capacity by quadrature of ln(1+y) against the product-SNR density."""
    if gamma_hat_d <= 0.0:
        raise ValueError("gamma_hat_d must be positive")
    model = closed_form_model(gamma_hat_d, m, fgm_copula(theta))

    def integrand(s: float) -> float:
        # y = s^2 smooths the sqrt(y) Bessel arguments.
        y = s * s
        return 2.0 * s * math.log1p(y) * snr_pdf_closed(model, y)

    # The density's mass sits at s ~ sqrt(gamma_hat_d).  Below gamma_hat_d = 1
    # the interval and the absolute tolerance shrink with it, or QUADPACK never
    # samples the mass and returns about 0 with a tiny error estimate.  Above,
    # the interval ends where both hop gains pass their 1e-17 upper quantile.
    small = min(1.0, gamma_hat_d)
    hi = math.sqrt(gamma_hat_d) * float(gammainccinv(m, 1e-17)) / m + 40.0 * math.sqrt(small)
    val, err = quad(integrand, 0.0, hi, epsabs=1e-11 * small, epsrel=1e-10, limit=400,
                    points=[math.sqrt(gamma_hat_d)])
    if not err <= 1e-7 * max(abs(val), 1.0):
        raise specfun.QuadratureError(f"RD capacity quadrature error {err:.2e}")
    return val / (2.0 * _LN2)


def capacity_rd_meijer(gamma_hat_d: float, m: int, theta: float) -> float:
    """RD capacity via the G^{1,4}_{4,2} closed form, summed as one contour integral.

    The prefactor multiplies the whole bracket.  The printed prefactor has a
    pi in its denominator; the reading without it matches quadrature and is
    the one computed here (the printed reading is this value divided by pi).
    With x = gamma_hat_d / m^2, the bracket weighs G at x by 1 + theta, at
    x/2 by -theta 2^(2-m-k)/k! and at x/4 by theta 2^(2-2m-k-n)/(k! n!); the
    prefactor is 1 / (2 Gamma(m)^2 ln 2).  The terms share one Mellin-Barnes
    kernel, as Gamma(m+k-s) = Gamma(m-s) (m-s)_k and the weights factor in k
    and n: with Q(s) = sum_{k<m} (m-s)_k / (2^k k!) and u = 2^(1-m+s) Q(s),
    the 1 + m + m^2 terms are one contour integral at s = -1/2 + it,

      C = 1 / (2 pi ln 2) int_0^inf Re[Gamma(1+s) Gamma(-s)^2 Gamma(m-s)^2
          / (Gamma(m)^2 Gamma(1-s)) x^-s (1 + theta (1 - u)^2)] dt,

    with 1 / Gamma(m)^2 in the log integrand, so the peak stays in range up
    to m = 100.  No power of gamma_hat_d is formed.
    """
    x = gamma_hat_d / (m * m)
    ln_x, ln_gamma_m2 = math.log(x), 2.0 * float(gammaln(m))

    def ln_integrand(s: complex) -> complex:
        q, term = 0.0, 1.0
        for k in range(m):
            q += term
            term *= (m + k - s) / (2.0 * k + 2.0)
        # For theta < 0 the weight vanishes at u = 1 +- 1/sqrt(-theta).
        weight = 1.0 + theta * (1.0 - 2.0 ** (1 - m + s) * q) ** 2
        return (_loggamma(1.0 + s) + 2.0 * _loggamma(-s) + 2.0 * _loggamma(m - s) - _loggamma(1.0 - s)
                - ln_gamma_m2 - s * ln_x + (cmath.log(weight) if weight else -math.inf))

    return specfun.mellin_barnes(ln_integrand, -0.5, f"RD capacity contour (m={m}, "
                                 f"theta={theta:.6g}) at x={x:.6g}") / (2.0 * _LN2)


def ergodic_capacity_system(sys: SwiptSystem) -> dict:
    """Both hop capacities by quadrature and their minimum, min(E C_sr, E C_rd).

    This is the minimum of the means; the Monte-Carlo ``cap_min`` estimates
    E[min(C_sr, C_rd)] instead, and the two differ unless one hop strictly
    dominates.
    """
    scales = derive_snr_scales(sys)
    c_sr = ergodic_capacity_sr(scales.gamma_hat_r, sys.fading_m)
    c_rd = ergodic_capacity_rd(scales.gamma_hat_d, sys.fading_m, sys.theta)
    return {"capacity_sr": c_sr, "capacity_rd": c_rd, "min_of_means": min(c_sr, c_rd)}


def _outage(sys: SwiptSystem, q: OutageQuery, destination_survival) -> float:
    # P(min(gamma_r, gamma_d) <= t) = 1 - C(S_r(t), S_d(t)): the FGM survival
    # copula coincides with the FGM copula itself.
    if q.threshold == 0.0:
        return 0.0
    scales = derive_snr_scales(sys)
    surv_r = 1.0 - relay_snr_cdf(scales.gamma_hat_r, sys.fading_m, q.threshold)
    surv_d = destination_survival(destination_snr_model(sys), q.threshold)
    return 1.0 - copula_cdf(fgm_copula(sys.theta), surv_r, surv_d)


# The lambdas look the survival functions up at call time, so a wrapper
# installed on this module's attributes (the benchmark tracer) sees each call.
def outage_probability(sys: SwiptSystem, q: OutageQuery) -> float:
    """P(min(gamma_r, gamma_d) <= threshold) via the FGM survival-copula composition."""
    return _outage(sys, q, lambda model, y: snr_survival_closed(model, y))


def outage_probability_quadrature(sys: SwiptSystem, q: OutageQuery) -> float:
    """Same composition with the destination CDF from the general product integral
    (survival 0 where y / gamma_hat_d overflows, which the integral refuses)."""
    return _outage(sys, q, lambda model, y: 0.0 if y / model.snr_scale == math.inf
                   else 1.0 - product_cdf_general(model, y))


def asymptotic_capacity_sr(gamma_hat_r: float, m: int) -> float:
    """High-SNR SR capacity: (psi(m) + ln(gamma_hat_r / m)) / (2 ln 2).

    This is E[ln gamma]/(2 ln 2), the reading validated by quadrature; the
    printed form with a 1/Gamma(m) prefactor does not match and is not
    implemented.
    """
    if gamma_hat_r <= 0.0:
        raise ValueError("gamma_hat_r must be positive")
    return (float(psi(m)) + math.log(gamma_hat_r / m)) / (2.0 * _LN2)


def asymptotic_outage(sys: SwiptSystem, q: OutageQuery) -> float:
    """High-SNR outage with the polynomial relay-CDF approximation.

    F_r is replaced by m^m t^m / (gamma_hat_r^m Gamma(m+1)); if that exceeds
    1 the high-SNR premise is violated and an OutOfRegimeError is raised
    rather than clamping.
    """
    if q.threshold == 0.0:
        return 0.0
    scales = derive_snr_scales(sys)
    m = sys.fading_m
    try:
        f_r_inf = (m * q.threshold / scales.gamma_hat_r) ** m / math.exp(gammaln(m + 1))
    except OverflowError:
        f_r_inf = math.inf
    if f_r_inf > 1.0:
        raise OutOfRegimeError(
            f"approximate relay CDF {f_r_inf:.3g} > 1; gamma_hat_r={scales.gamma_hat_r:.3g} "
            f"is not large relative to m*threshold"
        )
    surv_d = snr_survival_closed(destination_snr_model(sys), q.threshold)
    f_d = 1.0 - surv_d
    return 1.0 - (1.0 - f_r_inf) * surv_d * (1.0 + sys.theta * f_r_inf * f_d)


def adjudicate_closed_forms(gamma_hat_r: float, gamma_hat_d: float, m: int, theta: float) -> dict:
    """Compare every closed-form reading against its quadrature oracle.

    Returns the absolute discrepancies and the name of the matching
    convention for the SR-capacity upper parameter and the RD-capacity
    prefactor; consumed by the validation report.
    """
    sr_quad = ergodic_capacity_sr(gamma_hat_r, m)
    sr_std = capacity_sr_meijer(gamma_hat_r, m, printed_variant=False)
    sr_printed = capacity_sr_meijer(gamma_hat_r, m, printed_variant=True)
    rd_quad = ergodic_capacity_rd(gamma_hat_d, m, theta)
    rd_no_pi = capacity_rd_meijer(gamma_hat_d, m, theta)
    rd_pi = rd_no_pi / math.pi
    return {
        "sr_quadrature": sr_quad,
        "sr_upper_param_1_minus_m": sr_std,
        "sr_upper_param_printed": sr_printed,
        "sr_matching_variant": "1-m" if abs(sr_std - sr_quad) <= abs(sr_printed - sr_quad) else "printed",
        "sr_match_abs_error": abs(sr_std - sr_quad),
        "rd_quadrature": rd_quad,
        "rd_prefactor_no_pi": rd_no_pi,
        "rd_prefactor_printed_pi": rd_pi,
        "rd_matching_variant": "prefactor-times-bracket-no-pi"
        if abs(rd_no_pi - rd_quad) <= abs(rd_pi - rd_quad)
        else "printed-pi",
        "rd_match_abs_error": abs(rd_no_pi - rd_quad),
    }
