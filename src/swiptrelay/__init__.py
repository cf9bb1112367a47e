"""SWIPT dual-hop decode-and-forward relay analysis under FGM-dependent Nakagami-m fading."""

__version__ = "0.1.0"

from .copula import CopulaModel, fgm_copula, product_copula
from .fading import NakagamiPower
from .montecarlo import McConfig, McEstimate, simulate_metrics
from .product_dist import EndToEndSnrModel, closed_form_model, snr_cdf_closed, snr_pdf_closed
from .specfun import QuadratureError
from .swipt_metrics import (
    OutageQuery,
    SwiptSystem,
    derive_snr_scales,
    ergodic_capacity_system,
    outage_probability,
)

__all__ = [
    "CopulaModel",
    "EndToEndSnrModel",
    "McConfig",
    "McEstimate",
    "NakagamiPower",
    "OutageQuery",
    "QuadratureError",
    "SwiptSystem",
    "closed_form_model",
    "derive_snr_scales",
    "ergodic_capacity_system",
    "fgm_copula",
    "outage_probability",
    "product_copula",
    "simulate_metrics",
    "snr_cdf_closed",
    "snr_pdf_closed",
]
