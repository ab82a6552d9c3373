"""Tradeoff-curve generation: SE vs SNR per bit, and user density vs SNR per bit.

A curve is an ordered list of points swept over rho (or over J for density
curves, in which case the point's ``rho`` field carries the J that produced
it).  Each curve builds its rate function (``closedform.rate_function``) once,
with every fixed parameter bound, and evaluates the whole grid with it as
numpy columns; every number a point holds is a Python float.

A grid holds real numbers (``params.check_reals``), made floats in one pass.
A grid value that fails a rule is skipped and counted, never emitted as NaN:
the rule ``SchemeParams`` applies to the swept field (``rho_in_range`` or
``J_in_range``), rho = 0, and the checks ``checked_db`` makes on a result.
A value takes its numbers from the columns only when it passes every rule
there (its se is finite and its SNR per bit finite and > 0); each other
value is evaluated alone, by the float call, in grid order.  So the skip
count, and any error that escapes, are the float call's.  A curve where
nothing survived raises EmptyCurve.  numpy is imported on a curve's or
``make_grid``'s first use, once its arguments are checked.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .closedform import checked_db, decibels, rate_function
from .closedform import evaluate  # noqa: F401  (bench/spans.py wraps this name when tracing)
from .errors import EmptyCurve, GridMismatch, HarqScaleError
from .params import (J_in_range, Regime, Scheme, SchemeParams, check_count, check_real, check_reals,
                     rho_in_range)


@dataclass(frozen=True)
class CurvePoint:
    x_ebn0_db: float
    y: float             # bits/rdof (SE curves) or users/rdof (density curves)
    rho: float           # the sweep value that produced the point (J for density)
    ebn0_linear: float


@dataclass(frozen=True)
class Curve:
    scheme: Scheme
    regime: Regime
    params: SchemeParams          # fixed parameters (sweep variable ignored)
    sweep_var: str                # "rho" or "J"
    points: tuple[CurvePoint, ...]
    grid: tuple[float, ...]       # the full requested grid, including skipped values
    skipped: int


def make_grid(lo: float, hi: float, points: int, scale: str = "log") -> tuple[float, ...]:
    """An ascending grid of ``points`` (``params.check_count``); ``scale`` is "log" or "linear"."""
    points = check_count("points", points)
    lo, hi = (check_real("grid bounds", bound, -math.inf, math.inf, "()") for bound in (lo, hi))
    if not lo < hi:
        raise ValueError(f"grid needs min < max, got {lo!r} >= {hi!r}")
    if scale not in ("log", "linear"):
        raise ValueError(f"scale must be 'log' or 'linear', got {scale!r}")
    if scale == "log" and lo <= 0:
        raise ValueError(f"log grid needs min > 0, got {lo!r}")
    import numpy as np

    space = np.geomspace if scale == "log" else np.linspace
    return tuple(space(lo, hi, points).tolist())


def _sweep(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    grid: Sequence[float],
    sweep_var: str,
    in_range: "callable",
    y_divisor: float,
) -> Curve:
    import numpy as np

    grid = check_reals(f"{sweep_var} grid", grid)
    values = np.array(grid, dtype=float)
    if (values[1:] <= values[:-1]).any():
        raise ValueError(f"{sweep_var} grid must be strictly ascending, got {grid!r}")
    rate = rate_function(scheme, regime, params)
    by_rho = sweep_var == "rho"
    rho, J = params.rho, params.J
    # se and ebn0 of each value, NaN where it fails the field rule or rho = 0
    se = np.full(values.size, math.nan)
    ebn0 = se.copy()
    ok = in_range(values)
    if ok.any():
        with np.errstate(all="ignore"):
            try:
                se[ok], ebn0[ok] = rate(values[ok], J) if by_rho else rate(rho, values[ok])
            except (HarqScaleError, ValueError, ArithmeticError):
                pass  # each value is evaluated alone below
    # what checked_db accepts (se finite, ebn0 finite and not 0), and ebn0 > 0
    # so that no log10 fails
    keep = np.isfinite(se) & (0.0 < ebn0) & (ebn0 < math.inf)
    db = np.full(values.size, math.nan)
    db[keep] = decibels(ebn0[keep])
    for i in np.flatnonzero(~keep).tolist():
        value = grid[i]
        if not in_range(value):
            continue
        try:
            se_i, ebn0_i = rate(value, J) if by_rho else rate(rho, value)
            db[i] = checked_db(se_i, ebn0_i)
        except (HarqScaleError, ValueError):
            continue
        se[i], ebn0[i], keep[i] = se_i, ebn0_i, True
    n_points = int(np.count_nonzero(keep))
    if not n_points:
        raise EmptyCurve(f"every {sweep_var} grid point errored ({values.size} skipped)"
                         if values.size else f"the {sweep_var} grid is empty")
    # the grid's own objects: curve_to_json reuses their repr
    rhos = grid if n_points == values.size else compress(grid, keep.tolist())
    ys = se[keep] / y_divisor  # se / 1.0 is se to the bit
    points = []
    for x, y, r, lin in zip(db[keep].tolist(), ys.tolist(), rhos, ebn0[keep].tolist()):
        # built without the frozen __init__: a curve builds one per grid
        # value.  Each is filled before the next is made: records made all at
        # once, as a process's first, would not share their class's dict keys
        # and would take twice the memory
        record = object.__new__(CurvePoint)
        attrs = record.__dict__
        attrs["x_ebn0_db"] = x
        attrs["y"] = y
        attrs["rho"] = r
        attrs["ebn0_linear"] = lin
        points.append(record)
    return Curve(scheme, regime, params, sweep_var, tuple(points), grid, values.size - n_points)


def se_curve(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    rho_grid: Sequence[float],
) -> Curve:
    """Spectral efficiency against SNR per bit, swept over rho."""
    return _sweep(scheme, regime, params, rho_grid, "rho", rho_in_range, 1.0)


def density_curve(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    j_grid: Sequence[float],
) -> Curve:
    """User density (users per rdof = SE / params.L) against SNR per bit.

    Swept over the user count J at fixed rho.
    """
    return _sweep(scheme, regime, params, j_grid, "J", lambda j: J_in_range(j, params.T),
                  params.L)


def min_ebn0(curve: Curve) -> tuple[float, float]:
    """The curve point with the smallest SNR per bit; ties pick the larger y."""
    if not curve.points:
        raise EmptyCurve("cannot minimize an empty curve")
    best = min(curve.points, key=lambda p: (p.x_ebn0_db, -p.y))
    return best.x_ebn0_db, best.y


def find_crossing(curve_a: Curve, curve_b: Curve) -> float | None:
    """First x (in dB) where the y-order of two same-grid curves flips.

    Points are paired by shared grid value (a point one curve skipped is
    dropped from both); the crossing is linearly interpolated between the
    first adjacent pair with a strict sign change of y_a - y_b, along the mean
    of the two curves' abscissae.  Returns None when the sign never changes.
    """
    if curve_a.grid != curve_b.grid:
        raise GridMismatch(
            f"curves swept over different grids "
            f"({len(curve_a.grid)} vs {len(curve_b.grid)} points)"
        )
    by_a = {p.rho: p for p in curve_a.points}
    by_b = {p.rho: p for p in curve_b.points}
    pairs = [(by_a[g], by_b[g]) for g in curve_a.grid if g in by_a and g in by_b]
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        d0 = a0.y - b0.y
        d1 = a1.y - b1.y
        if d0 * d1 < 0.0:
            frac = d0 / (d0 - d1)
            x0 = 0.5 * (a0.x_ebn0_db + b0.x_ebn0_db)
            x1 = 0.5 * (a1.x_ebn0_db + b1.x_ebn0_db)
            return x0 + frac * (x1 - x0)
    return None
