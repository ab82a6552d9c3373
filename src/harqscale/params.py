"""Scheme/regime identifiers and the shared parameter record.

A single frozen dataclass carries every knob the closed forms need; each
scheme's formulas read the subset they care about.  ``J`` is a real number on purpose:
the formulas are continuous in the user count and the sweeps treat it as a
free axis.  Integer enforcement only matters when actual signatures are drawn,
which is the simulator's job.
"""

from __future__ import annotations

import math
import sys
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


# Each real parameter's domain, written once for its rule and its sweep mask:
# lo, hi and the two ends, "[" "]" closed or "(" ")" open
RHO, SIGMA2, ETA = (0, math.inf, "[)"), (0, math.inf, "()"), (0, 1, "[]")


def J_domain(T: int) -> tuple:
    return T, math.inf, "[)"


def within(x, lo, hi, ends: str):
    """Whether ``x`` is in the domain lo..hi with the given ends: a bool, or a numpy mask."""
    return (lo < x if ends[0] == "(" else lo <= x) & (x < hi if ends[1] == ")" else x <= hi)


def rho_in_range(rho):
    return within(rho, *RHO)  # SchemeParams and rho sweeps


def J_in_range(J, T: int):
    return within(J, *J_domain(T))  # SchemeParams and J sweeps


def _real_type(kind: type) -> bool:
    """Whether ``kind`` is a real type: one with a float value, but no string, complex or array."""
    np = sys.modules.get("numpy")  # numpy's complex and array types exist once numpy is loaded
    return (hasattr(kind, "__float__") and not issubclass(kind, (str, bytes, complex))
            and not (np and issubclass(kind, (np.complexfloating, np.ndarray))))


def check_real(name: str, value, lo, hi, ends: str, *, lo_name: str = "", huge_ok: bool = False):
    """The rule for every real argument: a real number (an int, float, bool, numpy real
    scalar or bool, Fraction or Decimal; never NaN) in the domain lo..hi with the given ends,
    named ``lo_name`` in the message if set; returned as a float.  An int beyond float range
    is refused, unless ``huge_ok`` takes it as a value past every float: it returns inf."""
    if not _real_type(type(value)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond float range
        if not huge_ok:
            raise ValueError(f"{name} is too large for float arithmetic") from None
        x = math.inf
    if not within(x, lo, hi, ends):
        if hi < math.inf:
            rule = f"in {ends[0]}{lo}, {hi}{ends[1]}"
        elif lo == -math.inf:
            rule = "finite"
        else:  # ">= 0", "finite and > 0", "finite and >= T (2)", ...
            finite = "finite and " if ends[1] == ")" else ""
            low = f"{lo_name} ({lo})" if lo_name else lo
            rule = f"{finite}{'>' if ends[0] == '(' else '>='} {low}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return x


def check_reals(name: str, values) -> tuple[float, ...]:
    """The rule for every sequence of reals: ``check_real``'s type test, made once a type, then
    one float() pass, where a float stays its own object; ``name`` names a value that fails."""
    try:
        values = tuple(values)
        if not all(map(_real_type, set(map(type, values)))):
            bad = next(v for v in values if not _real_type(type(v)))
            raise TypeError(f"{bad!r} is not a real number")
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must hold floats: {exc}") from None


def check_member(name: str, value, kind: type[Enum]) -> None:
    """The rule for every scheme, regime and hold argument: a member of ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__} member, got {value!r}")


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


@dataclass(frozen=True)
class SchemeParams:
    """Common parameters for all access schemes: T and B ints, every other field a float.

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
        # T and B are counts that float arithmetic reads too
        for name in ("T", "B"):
            check_real(name, getattr(self, name), -math.inf, math.inf, "()")
        store = object.__setattr__  # the record is frozen
        store(self, "T", check_T(self.T))
        store(self, "B", check_count("B", self.B))
        store(self, "rho", check_real("rho", self.rho, *RHO))
        store(self, "sigma2", check_real("sigma2", self.sigma2, *SIGMA2))
        store(self, "J", check_real("J", self.J, *J_domain(self.T), lo_name="T"))
        store(self, "eta", check_real("eta", self.eta, *ETA))
        # an int beyond float range is an unbounded buffer, as c_buf = inf is
        store(self, "c_buf", check_real("c_buf", self.c_buf, 0, math.inf, "(]", huge_ok=True))
        store(self, "L", check_real("L", self.L, 0, math.inf, "()"))
