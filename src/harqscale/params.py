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
        for name in ("T", "B"):
            raw = getattr(self, name)
            if not math.isfinite(raw) or raw != int(raw):
                raise ValueError(f"{name} must be an integer, got {raw!r}")
            object.__setattr__(self, name, int(raw))
        check_rho(self.rho)
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        if not 1 <= self.T <= T_MAX:
            raise ValueError(f"T must be in 1..{T_MAX}, got {self.T!r}")
        check_J(self.J, self.T)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta!r}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B!r}")
        if not self.c_buf > 0:
            raise ValueError(f"c_buf must be > 0, got {self.c_buf!r}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be finite and > 0, got {self.L!r}")
