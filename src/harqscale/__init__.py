"""Scaling laws for HARQ random-access uplinks.

Closed-form spectral efficiency, SNR per bit, and user density for four
access schemes (classical one-shot, chase-combining NOMA/OMA, incremental
redundancy OMA) under sum-optimal and treat-interference-as-noise decoding,
plus their limiting values, parameter sweeps, and a link-level Monte-Carlo
cross-check of the combined-receiver SINR algebra.

The Monte-Carlo names (from ``simulate``, and numpy with it) load on first
access, so the closed-form modules import without numpy.
"""

__version__ = "0.1.0"

from .closedform import (
    Metrics,
    QuantNoise,
    buffer_rate_from_quant_noise,
    eval_cc_noma,
    eval_cc_oma,
    eval_classical,
    eval_ir_oma,
    evaluate,
    fbl_rate,
    ir_quant_noise,
    qinv,
    total_power,
)
from .errors import (
    ConfigError,
    DegenerateRate,
    DegenerateResidual,
    DesiredInactive,
    DimensionTooSmall,
    EmptyCurve,
    GridMismatch,
    HarqScaleError,
    InvalidSlot,
    NegativeDenominator,
    UnsupportedCombination,
)
from .limits import (
    Hold,
    LimitKind,
    LimitResult,
    ebn0_cbuf_infinity_ir_tin,
    ebn0_floor,
    ebn0_rho_zero_limit,
)
from .params import Regime, Scheme, SchemeParams
from .sweep import (
    Curve,
    CurvePoint,
    density_curve,
    find_crossing,
    make_grid,
    min_ebn0,
    se_curve,
)
from .tables import CSV_HEADER, curve_to_csv, curve_to_json

_SIMULATE_NAMES = ("SinrEstimate", "analytic_sinr", "make_equicorrelated_signatures",
                   "simulate_cc_noma_sinr", "verify_cc_oma_noise_expansion")


def __getattr__(name: str):
    """Import ``simulate``, and numpy with it, on first use of its names."""
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulate

    globals()[name] = value = getattr(simulate, name)
    return value


__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "Curve",
    "CurvePoint",
    "DegenerateRate",
    "DegenerateResidual",
    "DesiredInactive",
    "DimensionTooSmall",
    "EmptyCurve",
    "GridMismatch",
    "HarqScaleError",
    "Hold",
    "InvalidSlot",
    "LimitKind",
    "LimitResult",
    "Metrics",
    "NegativeDenominator",
    "QuantNoise",
    "Regime",
    "Scheme",
    "SchemeParams",
    "SinrEstimate",
    "UnsupportedCombination",
    "analytic_sinr",
    "buffer_rate_from_quant_noise",
    "curve_to_csv",
    "curve_to_json",
    "density_curve",
    "ebn0_cbuf_infinity_ir_tin",
    "ebn0_floor",
    "ebn0_rho_zero_limit",
    "eval_cc_noma",
    "eval_cc_oma",
    "eval_classical",
    "eval_ir_oma",
    "evaluate",
    "fbl_rate",
    "find_crossing",
    "ir_quant_noise",
    "make_equicorrelated_signatures",
    "make_grid",
    "min_ebn0",
    "qinv",
    "se_curve",
    "simulate_cc_noma_sinr",
    "total_power",
    "verify_cc_oma_noise_expansion",
]
