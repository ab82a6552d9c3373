"""Closed-form spectral efficiency and SNR per bit for the four access schemes.

:func:`evaluate` returns a :class:`Metrics` triple (se, ebn0_linear, ebn0_db)
for one scheme under one decoding regime:

* classical     — every user transmits once, no combining;
* CC-NOMA       — chase combining of non-orthogonal retransmissions (MRC then
                  single-user matched-filter detection);
* CC-OMA        — same, but retransmissions land on orthogonal resources;
* IR-OMA        — incremental redundancy: each retransmission carries a
                  self-decodable refinement whose quantization-noise power
                  shrinks with the receiver buffer size.

Spectral efficiency is reported in bits per real degree of freedom for every
scheme (the per-frame sums are divided by T), so all curves share one axis and
``ebn0 = J*sigma2*rho / (2*se)`` holds uniformly (classical sum-optimal keeps
its extra factor T from the per-attempt energy accounting).

Floating-point note: the T=1 collapse of classical / CC-OMA / IR-OMA is an
*exact* identity and the test suite checks it bit-for-bit, so the SINRs of
:func:`combined_sinr` and :func:`_ir_oma` are written in matching shapes
(same operand order) and all but IR-OMA's go through the one accounting per
regime in :func:`evaluate` (TIN energy ratio in the reduced form
``T*sigma2*rho / log2(1+sinr)``).  Keep that alignment when editing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateRate, InvalidSlot, UnsupportedCombination
from .params import Regime, Scheme, SchemeParams

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def _log2(x: float) -> float:
    # Base-2 logs are natural log over ln 2 everywhere, for consistency.
    return math.log(x) / _LN2


@dataclass(frozen=True)
class Metrics:
    """One scheme/regime operating point."""

    se: float           # bits / rdof
    ebn0_linear: float  # dimensionless
    ebn0_db: float      # 10*log10(ebn0_linear), fixed at construction


_TOO_LARGE = "rho, J, sigma2 or c_buf is too large for float arithmetic"


def _db(ebn0: float) -> float:
    # every published SNR per bit (each Metrics, each limit) gets its dB value
    # here, so none is an inf, a NaN or log10(0)
    if not math.isfinite(ebn0):
        raise DegenerateRate(f"the SNR per bit is not finite ({ebn0!r}): {_TOO_LARGE}")
    if ebn0 == 0.0:
        raise DegenerateRate("the SNR per bit underflows to 0: rho or sigma2 is too small")
    return 10.0 * math.log10(ebn0)


def _metrics(se: float, ebn0: float) -> Metrics:
    # every Metrics is built here, so no evaluation publishes an inf or a NaN.
    # Filling the instance dict skips the frozen __init__ (an
    # object.__setattr__ per field); ==, hash and repr read the same fields.
    if not math.isfinite(se):
        raise DegenerateRate(f"the spectral efficiency is not finite ({se!r}): {_TOO_LARGE}")
    db = _db(ebn0)
    metrics = object.__new__(Metrics)
    attrs = metrics.__dict__
    attrs["se"] = se
    attrs["ebn0_linear"] = ebn0
    attrs["ebn0_db"] = db
    return metrics


@dataclass(frozen=True)
class QuantNoise:
    """Refinement-stage quantization noise power.

    ``clamped`` is True when the analytic expression went non-positive (the
    buffer already holds the slot losslessly) and the value was pinned at 0.
    """

    value: float
    clamped: bool


def total_power(params: SchemeParams) -> float:
    """Total transmit power across all users, P_tot = J * sigma2 * rho."""
    return params.J * params.sigma2 * params.rho


def combined_sinr(
    scheme: Scheme, regime: Regime, rho: float, T: int, J: float, eta: float
) -> float:
    """Combined-channel SINR of classical, CC-NOMA and CC-OMA, J transmissions
    over T slots, the one place each form is written.

    CC-NOMA's J - T interferers add coherently (the squared term in eta);
    CC-OMA leaks only through the shared slot budget (eta unused).  The
    sum-optimal forms are linear in rho, so their value at rho = 1 is the
    slope that sets the SNR-per-bit floor.  An SINR that overflows raises
    DegenerateRate; IR-OMA raises UnsupportedCombination.
    """
    try:
        if regime is Regime.SUM_OPTIMAL:
            if scheme is Scheme.CLASSICAL:
                return rho * J / T
            if scheme is Scheme.CC_NOMA:
                return rho * T * (1.0 + eta**2 * (J / T - 1.0) ** 2)
            if scheme is Scheme.CC_OMA:
                return rho * T * (1.0 + (1.0 / T) * (J / T - 1.0))
        elif scheme is Scheme.CLASSICAL:
            return rho / (rho * (J / T - 1.0) + 1.0)
        elif scheme is Scheme.CC_NOMA:
            return rho * T**2 / (T + rho * eta**2 * (J - T) ** 2)
        elif scheme is Scheme.CC_OMA:
            return rho * T / (rho * (J / T - 1.0) + 1.0)
    except OverflowError as exc:
        raise DegenerateRate(
            f"the SINR overflows: J = {J!r} or T = {T!r} "
            f"is too large for float arithmetic"
        ) from exc
    raise UnsupportedCombination(f"no combined-channel SINR form for {scheme.value}")


def ir_quant_noise(
    params: SchemeParams, regime: Regime, t: int, horizon: int
) -> QuantNoise:
    """Quantization noise power carried by refinement slot ``t``.

    The buffer spreads its 2*c_buf/(horizon*B) bits-per-symbol budget over
    ``horizon`` refinement stages; the final slot of the frame (t = T) is
    decoded directly and carries no quantization noise.  ``horizon`` must be
    T-1 (the energy-per-bit accounting) or T (the per-frame rate accounting).
    In the TIN regime the refinement only has to describe the desired user's
    share, so a large enough buffer drives the expression to zero and the
    result is clamped (flagged).  A buffer so small that 2**(2*c_buf/(horizon*B))
    rounds to 1 raises DegenerateRate.
    """
    p = params
    if horizon not in (p.T - 1, p.T):
        raise ValueError(
            f"horizon must be T-1 or T (= {p.T - 1} or {p.T}), got {horizon!r}"
        )
    if not 1 <= t <= p.T:
        raise InvalidSlot(f"slot t={t!r} outside 1..{p.T}")
    if t == p.T:
        return QuantNoise(0.0, False)
    try:
        grow = 2.0 ** (2.0 * p.c_buf / (horizon * p.B)) - 1.0
    except OverflowError:
        grow = math.inf
    if grow == 0.0:
        raise DegenerateRate(
            f"c_buf = {p.c_buf!r} is too small for float arithmetic: "
            f"the buffer growth 2**(2*c_buf/(horizon*B)) - 1 rounds to 0"
        )
    if regime is Regime.SUM_OPTIMAL:
        return QuantNoise(p.B * (p.J * p.rho / p.B + 1.0) * p.sigma2 / grow, False)
    value = (
        p.B * (p.rho / p.B + 1.0) * p.sigma2 / grow
        - (p.J / horizon - 1.0) * p.rho * p.sigma2
    )
    if value <= 0.0:
        return QuantNoise(0.0, True)
    return QuantNoise(value, False)


def buffer_rate_from_quant_noise(params: SchemeParams, sigma_q2: float) -> float:
    """Invert the sum-optimal quantization-noise expression.

    Returns the per-stage buffer rate c_buf/horizon that produces the given
    noise power; composing this with :func:`ir_quant_noise` is the identity
    (up to roundoff) whenever the noise was not clamped.
    """
    p = params
    return (p.B / 2.0) * _log2(1.0 + (p.J * p.rho + p.B) * p.sigma2 / sigma_q2)


def _ir_slot_sinr(p: SchemeParams, regime: Regime, q: float) -> float:
    if regime is Regime.SUM_OPTIMAL:
        return (p.rho * p.J / p.B) / (1.0 + q / (p.B * p.sigma2))
    den = p.rho * (p.J / p.T - 1.0) / p.B + 1.0 + q / (p.B * p.sigma2)
    return (p.rho / p.B) / den


def _ir_oma(p: SchemeParams, regime: Regime) -> Metrics:
    """Incremental redundancy over T orthogonal attempts.

    Every slot t < T sees the same refinement quantization noise on top of
    the channel noise; the final slot is conventional.  The slot rates are
    added one by one in slot order and normalized to rdof (divide by T).
    """
    q = ir_quant_noise(p, regime, 1, p.T - 1).value  # 0.0 when T = 1
    refine = _log2(1.0 + _ir_slot_sinr(p, regime, q))
    final = _log2(1.0 + _ir_slot_sinr(p, regime, 0.0))
    bits_total = 0.0
    for _ in range(p.T - 1):
        bits_total += refine
    bits_total += final
    if regime is Regime.SUM_OPTIMAL:
        se = (p.B / (2.0 * p.T)) * bits_total
        return _metrics(se, p.J * p.sigma2 * p.rho / ((p.B / p.T) * bits_total))
    se = (p.J * p.B / (2.0 * p.T * p.T)) * bits_total
    return _metrics(se, p.T * p.sigma2 * p.rho / ((p.B / p.T) * bits_total))


def evaluate(scheme: Scheme, regime: Regime, params: SchemeParams) -> Metrics:
    """Spectral efficiency and SNR per bit of one scheme under one regime.

    bits = log2(1 + sinr) of the combined channel.  TIN: se = (J/(2T))*bits
    and ebn0 = T*sigma2*rho/bits.  Sum-optimal: se = bits/2 and
    ebn0 = J*sigma2*rho/bits, times T for classical (per-attempt energy).
    rho = 0 makes the ratio 0/0 and raises DegenerateRate, and so does an SINR
    that overflows.
    """
    p = params
    if p.rho == 0.0:
        raise DegenerateRate(
            "rho = 0 makes the energy-per-bit ratio 0/0; "
            "use harqscale.limits for the limiting values"
        )
    if scheme is Scheme.IR_OMA:
        return _ir_oma(p, regime)
    sinr = combined_sinr(scheme, regime, p.rho, p.T, p.J, p.eta)
    bits = _log2(1.0 + sinr)
    if regime is Regime.TIN:
        return _metrics((p.J / (2.0 * p.T)) * bits, p.T * p.sigma2 * p.rho / bits)
    energy = p.J * p.sigma2 * p.rho
    if scheme is Scheme.CLASSICAL:
        energy = energy * p.T
    return _metrics(0.5 * bits, energy / bits)


# ---------------------------------------------------------------------------
# finite-blocklength normal approximation
# ---------------------------------------------------------------------------

# |Phi^-1| rational approximation in t = sqrt(-2 ln eps) (Hastings-style
# coefficients, abs err < 4.5e-4) -- only used to seed Newton.
_INV_C = (2.515517, 0.802853, 0.010328)
_INV_D = (1.432788, 0.189269, 0.001308)


def _gauss_tail(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


def qinv(epsilon: float) -> float:
    """Inverse of the standard-normal upper tail on (0, 0.5).

    Rational initial guess refined by Newton on Q(x) - eps; relative error is
    below 1e-10 across the supported range.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon!r}")
    t = math.sqrt(-2.0 * math.log(epsilon))
    c0, c1, c2 = _INV_C
    d1, d2, d3 = _INV_D
    x = t - (c0 + t * (c1 + t * c2)) / (1.0 + t * (d1 + t * (d2 + t * d3)))
    for _ in range(4):
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if pdf == 0.0:  # tail too deep to polish; the seed is all we have
            break
        x += (_gauss_tail(x) - epsilon) / pdf
    return x


def fbl_rate(sinr: float, n: float, epsilon: float) -> float:
    """Largest rate (bits/rdof) at blocklength ``n`` and error rate ``epsilon``.

    Normal approximation: capacity minus the dispersion penalty
    sqrt(V/(2n)) * Qinv(epsilon), floored at zero.
    """
    if sinr < 0:
        raise ValueError(f"sinr must be >= 0, got {sinr!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if sinr == 0.0:
        return 0.0
    cap = 0.5 * _log2(1.0 + sinr)
    disp = 1.0 - 1.0 / (1.0 + sinr) ** 2
    rate = cap - math.sqrt(disp / (2.0 * n)) * qinv(epsilon)
    return max(0.0, rate)
