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
*exact* identity and the test suite checks it bit-for-bit, so the SINR forms
and IR-OMA's slot SINRs are written in matching shapes (same operand order),
and :func:`rate_function` applies one accounting per regime to the first
(TIN energy ratio in the reduced form ``T*sigma2*rho / log2(1+sinr)``).  Keep
that alignment when editing.

Each rate form is written once and takes either floats or numpy arrays for
(rho, J): a sweep evaluates its whole grid as one column, and gets the bits
the float call gives.  So a square of rho or J is :func:`_sq`, libm ``pow``
on both paths (numpy's ``x ** 2`` is ``x * x``, which differs in the last
bit), and a log maps ``math.log`` over a column's values (``np.log`` differs
too).  Float calls never import numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DegenerateRate, InvalidSlot, UnsupportedCombination
from .params import Regime, Scheme, SchemeParams, check_count, check_member, check_real

_LN2 = math.log(2.0)


def _numpy_of(x):
    """numpy when ``x`` is a numpy array (a sweep's column), else None; numpy
    is loaded whenever an array exists, so a float call never imports it.
    Callers answer a float's case first, without this call: the float calls
    are the per-value ones."""
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def _sq(x):
    # libm pow for a float and for each value of a column
    np = None if type(x) is float else _numpy_of(x)
    return x ** 2 if np is None else np.float_power(x, 2.0)


def _mapped(log, x):
    # math.log or math.log10 of a float, or of each value of a column
    np = None if type(x) is float else _numpy_of(x)
    return log(x) if np is None else np.fromiter(map(log, x.tolist()), float, x.size)


def _log2(x):
    # Base-2 logs are natural log over ln 2 everywhere, for consistency.
    return _mapped(math.log, x) / _LN2


def decibels(x):
    """10*log10 of a float, or of each value of a numpy array, unchecked."""
    return 10.0 * _mapped(math.log10, x)


@dataclass(frozen=True)
class Metrics:
    """One scheme/regime operating point."""

    se: float           # bits / rdof
    ebn0_linear: float  # dimensionless
    ebn0_db: float      # 10*log10(ebn0_linear), fixed at construction


_TOO_LARGE = "rho, J, sigma2 or c_buf is too large for float arithmetic"
_SINR_OVERFLOW = "the SINR overflows: J = {!r} or T = {!r} is too large for float arithmetic"
_RHO_ZERO = ("rho = 0 makes the energy-per-bit ratio 0/0; "
             "use harqscale.limits for the limiting values")


def _db(ebn0: float) -> float:
    # every published SNR per bit (each Metrics, each limit) gets its dB value
    # here, so none is an inf, a NaN or log10(0)
    if not math.isfinite(ebn0):
        raise DegenerateRate(f"the SNR per bit is not finite ({ebn0!r}): {_TOO_LARGE}")
    if ebn0 == 0.0:
        raise DegenerateRate("the SNR per bit underflows to 0: rho or sigma2 is too small")
    return decibels(ebn0)


def checked_db(se: float, ebn0: float) -> float:
    # every rate function's output (each Metrics, each sweep point) is checked
    # here and gets its dB value, so no evaluation publishes an inf or a NaN
    if not math.isfinite(se):
        raise DegenerateRate(f"the spectral efficiency is not finite ({se!r}): {_TOO_LARGE}")
    return _db(ebn0)


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


def _sinr_form(scheme: Scheme, regime: Regime, T: int, eta: float):
    # The combined-channel SINR as a function of (rho, J), the one place each
    # form is written; a squared term that overflows raises OverflowError on
    # floats and is inf in a column.
    if regime is Regime.SUM_OPTIMAL:
        if scheme is Scheme.CLASSICAL:
            return lambda rho, J: rho * J / T
        if scheme is Scheme.CC_NOMA:
            return lambda rho, J: rho * T * (1.0 + eta**2 * _sq(J / T - 1.0))
        if scheme is Scheme.CC_OMA:
            return lambda rho, J: rho * T * (1.0 + (1.0 / T) * (J / T - 1.0))
    elif scheme is Scheme.CLASSICAL:
        return lambda rho, J: rho / (rho * (J / T - 1.0) + 1.0)
    elif scheme is Scheme.CC_NOMA:
        return lambda rho, J: rho * T**2 / (T + rho * eta**2 * _sq(J - T))
    elif scheme is Scheme.CC_OMA:
        return lambda rho, J: rho * T / (rho * (J / T - 1.0) + 1.0)
    raise UnsupportedCombination(f"no combined-channel SINR form for {scheme.value}")


def combined_sinr(
    scheme: Scheme, regime: Regime, rho: float, T: int, J: float, eta: float
) -> float:
    """Combined-channel SINR of classical, CC-NOMA and CC-OMA, J transmissions
    over T slots.

    CC-NOMA's J - T interferers add coherently (the squared term in eta);
    CC-OMA leaks only through the shared slot budget (eta unused).  The
    sum-optimal forms are linear in rho, so their value at rho = 1 is the
    slope that sets the SNR-per-bit floor.  An SINR that overflows raises
    DegenerateRate; IR-OMA raises UnsupportedCombination.
    """
    check_member("scheme", scheme, Scheme), check_member("regime", regime, Regime)
    sinr = _sinr_form(scheme, regime, T, eta)
    try:
        return sinr(rho, J)
    except OverflowError as exc:
        raise DegenerateRate(_SINR_OVERFLOW.format(J, T)) from exc


def _ir_quant_form(regime: Regime, p: SchemeParams, horizon: int):
    # ir_quant_noise's value as a function of (rho, J), clamped at 0 in TIN;
    # a growth that rounds to 0 raises at each call, not here
    try:
        grow = 2.0 ** (2.0 * p.c_buf / (horizon * p.B)) - 1.0
    except OverflowError:
        grow = math.inf
    B, sigma2 = p.B, p.sigma2
    if grow == 0.0:
        def too_small(rho: float, J: float) -> float:
            raise DegenerateRate(f"c_buf = {p.c_buf!r} is too small for float arithmetic: "
                                 "the buffer growth 2**(2*c_buf/(horizon*B)) - 1 rounds to 0")
        return too_small
    if regime is Regime.SUM_OPTIMAL:
        return lambda rho, J: B * (J * rho / B + 1.0) * sigma2 / grow

    def tin(rho, J):
        value = B * (rho / B + 1.0) * sigma2 / grow - (J / horizon - 1.0) * rho * sigma2
        np = None if type(value) is float else _numpy_of(value)
        if np is None:
            return 0.0 if value <= 0.0 else value
        return np.where(value <= 0.0, 0.0, value)
    return tin


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
    rounds to 1 raises DegenerateRate.  ``t`` follows ``params.check_count``;
    a slot outside 1..T raises InvalidSlot.
    """
    p = params
    check_member("regime", regime, Regime)
    if horizon not in (p.T - 1, p.T):
        raise ValueError(
            f"horizon must be T-1 or T (= {p.T - 1} or {p.T}), got {horizon!r}"
        )
    t = check_count("t", t, -math.inf)
    if not 1 <= t <= p.T:
        raise InvalidSlot(f"slot t={t!r} outside 1..{p.T}")
    if t == p.T:
        return QuantNoise(0.0, False)
    value = _ir_quant_form(regime, p, horizon)(p.rho, p.J)
    # the TIN form returns 0.0 exactly when it clamps
    return QuantNoise(value, regime is Regime.TIN and value == 0.0)


def buffer_rate_from_quant_noise(params: SchemeParams, sigma_q2: float) -> float:
    """Invert the sum-optimal quantization-noise expression.

    Returns the per-stage buffer rate c_buf/horizon that produces the given
    noise power; composing this with :func:`ir_quant_noise` is the identity
    (up to roundoff) whenever the noise was not clamped.
    """
    check_real("sigma_q2", sigma_q2, 0, math.inf, "(]")
    p = params
    return (p.B / 2.0) * _log2(1.0 + (p.J * p.rho + p.B) * p.sigma2 / sigma_q2)


def _check_rho_nonzero(rho) -> None:
    # a column's zeros are the caller's to flag: a sweep takes them through
    # the float call, which raises here
    if (type(rho) is float or _numpy_of(rho) is None) and rho == 0.0:
        raise DegenerateRate(_RHO_ZERO)


def _ir_oma_rate(regime: Regime, p: SchemeParams):
    """Incremental redundancy over T orthogonal attempts.

    Every slot t < T sees the same refinement quantization noise q on top of
    the channel noise; the final slot is conventional.  The slot rates are
    added one by one in slot order and normalized to rdof (divide by T).
    """
    T, B, sigma2 = p.T, p.B, p.sigma2
    tin = regime is Regime.TIN
    slot_sinr = (  # of (rho, J, q), with q the slot's quantization noise
        (lambda rho, J, q: (rho / B) / (rho * (J / T - 1.0) / B + 1.0 + q / (B * sigma2)))
        if tin else (lambda rho, J, q: (rho * J / B) / (1.0 + q / (B * sigma2)))
    )
    # at T = 1 the one slot is the final one
    quant = _ir_quant_form(regime, p, T - 1) if T > 1 else lambda rho, J: 0.0

    def rate(rho, J):
        _check_rho_nonzero(rho)
        refine = _log2(1.0 + slot_sinr(rho, J, quant(rho, J)))
        final = _log2(1.0 + slot_sinr(rho, J, 0.0))
        bits_total = 0.0
        for _ in range(T - 1):
            bits_total += refine
        bits_total += final
        if tin:
            se = (J * B / (2.0 * T * T)) * bits_total
            return se, T * sigma2 * rho / ((B / T) * bits_total)
        return (B / (2.0 * T)) * bits_total, J * sigma2 * rho / ((B / T) * bits_total)
    return rate


def rate_function(scheme: Scheme, regime: Regime, params: SchemeParams):
    """The (rho, J) -> (se, ebn0) map of one scheme under one regime, with
    every other parameter of ``params`` bound; a sweep builds it once a curve.

    bits = log2(1 + sinr) of the combined channel.  TIN: se = (J/(2T))*bits
    and ebn0 = T*sigma2*rho/bits.  Sum-optimal: se = bits/2 and
    ebn0 = J*sigma2*rho/bits, times T for classical (per-attempt energy).
    rho = 0 makes the ratio 0/0 and raises DegenerateRate, and so does an SINR
    that overflows; :func:`checked_db` checks the result.  Given numpy arrays
    it returns arrays, with no per-value check: an overflow or a zero rate
    leaves a non-finite value there, and a zero rho a NaN.
    """
    check_member("scheme", scheme, Scheme), check_member("regime", regime, Regime)
    if scheme is Scheme.IR_OMA:
        return _ir_oma_rate(regime, params)
    T, sigma2 = params.T, params.sigma2
    sinr = _sinr_form(scheme, regime, T, params.eta)
    tin = regime is Regime.TIN
    attempts = T if scheme is Scheme.CLASSICAL else 1  # x * 1 is x to the bit

    def rate(rho, J):
        _check_rho_nonzero(rho)
        try:
            bits = _log2(1.0 + sinr(rho, J))
        except OverflowError as exc:
            raise DegenerateRate(_SINR_OVERFLOW.format(J, T)) from exc
        if tin:
            return (J / (2.0 * T)) * bits, T * sigma2 * rho / bits
        return 0.5 * bits, J * sigma2 * rho * attempts / bits
    return rate


def evaluate(scheme: Scheme, regime: Regime, params: SchemeParams) -> Metrics:
    """Spectral efficiency and SNR per bit of one scheme under one regime:
    :func:`rate_function` at (params.rho, params.J)."""
    se, ebn0 = rate_function(scheme, regime, params)(params.rho, params.J)
    return Metrics(se, ebn0, checked_db(se, ebn0))


# ---------------------------------------------------------------------------
# finite-blocklength normal approximation
# ---------------------------------------------------------------------------


def qinv(epsilon: float) -> float:
    """Inverse of the standard-normal upper tail on (0, 0.5) to full double
    precision: the standard library's -Phi^-1(epsilon), so no 1 - epsilon is rounded."""
    check_real("epsilon", epsilon, 0, 0.5, "()")
    from statistics import NormalDist  # it imports fractions and decimal: load on first call
    return -NormalDist().inv_cdf(epsilon)


def fbl_rate(sinr: float, n: float, epsilon: float) -> float:
    """Largest rate (bits/rdof) at blocklength ``n`` and error rate ``epsilon``.

    Normal approximation: capacity minus the dispersion penalty
    sqrt(V/(2n)) * Qinv(epsilon), floored at zero.
    """
    check_real("sinr", sinr, 0, math.inf, "[)"), check_real("n", n, 1, math.inf, "[]")
    if sinr == 0.0:
        return 0.0
    cap = 0.5 * _log2(1.0 + sinr)
    disp = 1.0 - 1.0 / (1.0 + sinr) ** 2
    rate = cap - math.sqrt(disp / (2.0 * n)) * qinv(epsilon)
    return max(0.0, rate)
