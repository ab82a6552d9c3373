"""Scheme/regime identifiers and the shared parameter record.

A single frozen dataclass carries every knob the closed forms need; each
scheme's formulas read the subset they care about.  ``J`` is a real number on purpose:
the formulas are continuous in the user count and the sweeps treat it as a
free axis.  Integer enforcement only matters when actual signatures are drawn,
which is the simulator's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Scheme(Enum):
    CLASSICAL = "classical"
    CC_NOMA = "cc-noma"
    CC_OMA = "cc-oma"
    IR_OMA = "ir-oma"


class Regime(Enum):
    SUM_OPTIMAL = "sum"
    TIN = "tin"


# IR-OMA adds its T slot rates one by one and validate's oracle sets up T slots;
# this bound keeps both well under a second
T_MAX = 10_000


def rho_in_range(rho):
    """The rule for ``rho``, finite and >= 0, as a bool, or as a mask of a
    numpy array's values (``SchemeParams`` and rho sweeps)."""
    return (0 <= rho) & (rho < math.inf)


def J_in_range(J, T: int):
    """The rule for ``J``, finite and >= T, as a bool, or as a mask of a
    numpy array's values (``SchemeParams`` and J sweeps)."""
    return (T <= J) & (J < math.inf)


def check_rho(rho: float) -> None:
    if not rho_in_range(rho):
        raise ValueError(f"rho must be finite and >= 0, got {rho!r}")


def check_J(J: float, T: int) -> None:
    if not J_in_range(J, T):
        raise ValueError(f"J must be finite and >= T ({T}), got {J!r}")


def check_sigma2(sigma2: float) -> None:
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and > 0, got {sigma2!r}")


def check_count(name: str, value, lo: float = 1, hi: float = math.inf) -> int:
    """The rule for every count, index and seed: an integer, or a float holding one, in lo..hi."""
    if not (hasattr(value, "__index__") or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        span = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {span}, got {value!r}")
    return value


def check_T(T: int) -> int:
    return check_count("T", T, 1, T_MAX)


def check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Common parameters for all access schemes.

    rho     per-user received SNR per transmission attempt (linear)
    T       number of (re)transmission attempts per frame, 1..T_MAX
    J       total user count (real, >= T)
    eta     non-orthogonality factor in [0, 1]
    sigma2  noise power per dimension (linear)
    B       frequency-bin count
    c_buf   receiver combining-buffer size, normalized by packet length
    L       per-user payload in bits (only the density mapping reads this)

    ``rho = 0`` is storable (``evaluate`` rejects it with DegenerateRate,
    limit values live in :mod:`harqscale.limits`); everything else follows the
    physical ranges.  Every value but ``c_buf`` must be finite; ``c_buf = inf``
    is allowed and means an unbounded combining buffer.
    """

    rho: float = 1.0
    T: int = 1
    J: float = 1.0
    eta: float = 1.0
    sigma2: float = 1.0
    B: int = 1
    c_buf: float = 10.0
    L: float = 100.0

    def __post_init__(self) -> None:
        # c_buf is left out: an int beyond float range is an unbounded buffer,
        # as c_buf = inf is
        for name in ("rho", "T", "J", "sigma2", "B", "L"):
            try:
                math.isfinite(getattr(self, name))
            except OverflowError:  # an int beyond float range
                raise ValueError(f"{name} is too large for float arithmetic") from None
        object.__setattr__(self, "T", check_T(self.T))
        object.__setattr__(self, "B", check_count("B", self.B))
        check_rho(self.rho)
        check_sigma2(self.sigma2)
        check_J(self.J, self.T)
        check_eta(self.eta)
        if not self.c_buf > 0:
            raise ValueError(f"c_buf must be > 0, got {self.c_buf!r}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be finite and > 0, got {self.L!r}")
