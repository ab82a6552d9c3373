"""Closed-form floors and limiting values of the SNR per bit.

Each supported scheme/regime pair has a small set of stated limits: the floor
reached as the spectral efficiency is driven to zero, the rho -> 0 limit along
an explicitly chosen path (total power held fixed vs. user count held fixed),
and the infinite-buffer limit of the incremental-redundancy scheme.  Pairs
without a stated limit raise UnsupportedCombination; sweep-level numeric
minimization is the fallback there.

Everything is returned linear-first with a dB companion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .closedform import _LN2, _cc_noma_sum_gain, _db, evaluate, total_power
from .errors import UnsupportedCombination
from .params import Regime, Scheme, SchemeParams


class LimitKind(Enum):
    FLOOR_SE_TO_ZERO = "floor-se-to-zero"
    LIMIT_RHO_TO_ZERO = "limit-rho-to-zero"
    LIMIT_CBUF_TO_INFINITY = "limit-cbuf-to-infinity"


class Hold(Enum):
    """Which quantity stays fixed while rho -> 0."""

    TOTAL_POWER = "p_tot"
    USER_COUNT = "j"


@dataclass(frozen=True)
class LimitResult:
    value_linear: float
    value_db: float
    kind: LimitKind


def _result(value: float, kind: LimitKind) -> LimitResult:
    return LimitResult(value, _db(value), kind)


def ebn0_floor(scheme: Scheme, regime: Regime, params: SchemeParams) -> LimitResult:
    """SNR-per-bit floor as the spectral efficiency goes to zero.

    CC-NOMA sum-optimal: ln2 * J*sigma2 / (T*(1 + eta^2*(J/T-1)^2)).
    CC-NOMA TIN and CC-OMA TIN: ln2 * sigma2 (the -1.59 dB floor shifted by
    the noise level).  Other pairs have no stated floor.
    """
    p = params
    if scheme is Scheme.CC_NOMA and regime is Regime.SUM_OPTIMAL:
        value = _LN2 * p.J * p.sigma2 / (p.T * _cc_noma_sum_gain(p))
        return _result(value, LimitKind.FLOOR_SE_TO_ZERO)
    if scheme in (Scheme.CC_NOMA, Scheme.CC_OMA) and regime is Regime.TIN:
        return _result(_LN2 * p.sigma2, LimitKind.FLOOR_SE_TO_ZERO)
    raise UnsupportedCombination(
        f"no closed-form floor for {scheme.value}/{regime.value}; "
        "minimize over a sweep instead"
    )


def ebn0_rho_zero_limit(
    scheme: Scheme, regime: Regime, params: SchemeParams, hold: Hold
) -> LimitResult:
    """Stated rho -> 0 value of the SNR per bit for the chosen path.

    With the total power held fixed (J tracking P_tot/(sigma2*rho)) the
    returned value is ln2*P_tot for CC-NOMA sum-optimal, classical TIN at T=1,
    and IR-OMA TIN.  With the user count held fixed it is ln2*sigma2 for
    CC-NOMA TIN.  ``params`` carries the target P_tot implicitly as
    J*sigma2*rho.

    The fixed-total-power values are the stated ones, not the limits of
    ``evaluate`` along that path: CC-NOMA sum-optimal tends to 0 for eta > 0
    (ln2*P_tot / ln(eta^2*P_tot^2/(T*sigma2^2*rho))) and diverges for
    eta = 0; classical TIN at T=1 tends to ln2*(P_tot + sigma2); IR-OMA TIN
    with a large buffer tends to ln2*(P_tot + T*sigma2).  The test suite
    checks these paths (tests/test_limits.py, acceptance criterion 3).
    """
    p = params
    if hold is Hold.TOTAL_POWER:
        if (
            (scheme is Scheme.CC_NOMA and regime is Regime.SUM_OPTIMAL)
            or (scheme is Scheme.CLASSICAL and regime is Regime.TIN and p.T == 1)
            or (scheme is Scheme.IR_OMA and regime is Regime.TIN)
        ):
            return _result(_LN2 * total_power(p), LimitKind.LIMIT_RHO_TO_ZERO)
    elif scheme is Scheme.CC_NOMA and regime is Regime.TIN:
        return _result(_LN2 * p.sigma2, LimitKind.LIMIT_RHO_TO_ZERO)
    raise UnsupportedCombination(
        f"no stated rho->0 limit for {scheme.value}/{regime.value} "
        f"holding {hold.value} fixed"
    )


def ebn0_cbuf_infinity_ir_tin(params: SchemeParams) -> LimitResult:
    """Infinite-buffer limit of IR-OMA TIN: the classical-TIN SNR per bit.

    Evaluates classical TIN so the equality is exact by construction (same
    expression, same bits).
    """
    m = evaluate(Scheme.CLASSICAL, Regime.TIN, params)
    return LimitResult(m.ebn0_linear, m.ebn0_db, LimitKind.LIMIT_CBUF_TO_INFINITY)
