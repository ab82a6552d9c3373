"""Tradeoff-curve generation: SE vs SNR per bit, and user density vs SNR per bit.

A curve is an ordered list of points swept over rho (or over J for density
curves, in which case the point's ``rho`` field carries the J that produced
it).  Grid points whose evaluation errors (e.g. rho = 0) are skipped and
counted, never emitted as NaN; a curve where nothing survived raises
EmptyCurve.  Each grid value is checked with the rule ``SchemeParams`` applies
to the swept field (``check_rho`` or ``check_J``; a failure is a skipped
point), and the point's parameter record is copied from the already-checked
base rather than validated again field by field.  numpy is imported by
``make_grid`` only, on first use, once its arguments are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .closedform import Metrics, evaluate
from .errors import EmptyCurve, GridMismatch, HarqScaleError
from .params import Regime, Scheme, SchemeParams, check_J, check_rho


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
    """Build an ascending sweep grid; ``scale`` is "log" or "linear"."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {lo!r} and {hi!r}")
    if not lo < hi:
        raise ValueError(f"grid needs min < max, got {lo!r} >= {hi!r}")
    if scale not in ("log", "linear"):
        raise ValueError(f"scale must be 'log' or 'linear', got {scale!r}")
    if scale == "log" and lo <= 0:
        raise ValueError(f"log grid needs min > 0, got {lo!r}")
    import numpy as np

    space = np.geomspace if scale == "log" else np.linspace
    return tuple(space(lo, hi, points).tolist())


def _check_ascending(grid: Sequence[float], name: str) -> tuple[float, ...]:
    grid = tuple(float(g) for g in grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly ascending, got {grid!r}")
    return grid


def _sweep(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    grid: tuple[float, ...],
    sweep_var: str,
    check: "callable[[float], None]",
    y_of: "callable[[Metrics], float]",
) -> Curve:
    points: list[CurvePoint] = []
    skipped = 0
    values = dict(vars(params))
    for value in grid:
        try:
            check(value)
            values[sweep_var] = value
            # params passed __post_init__ and check() applies its rule to the
            # one field that changes, so the point skips the full re-check
            point = object.__new__(SchemeParams)
            point.__dict__.update(values)
            metrics = evaluate(scheme, regime, point)
        except (HarqScaleError, ValueError):
            skipped += 1
            continue
        # built like the point's params, without the frozen __init__
        record = object.__new__(CurvePoint)
        attrs = record.__dict__
        attrs["x_ebn0_db"] = metrics.ebn0_db
        attrs["y"] = y_of(metrics)
        attrs["rho"] = value
        attrs["ebn0_linear"] = metrics.ebn0_linear
        points.append(record)
    if not points:
        raise EmptyCurve(f"every {sweep_var} grid point errored ({skipped} skipped)")
    return Curve(scheme, regime, params, sweep_var, tuple(points), grid, skipped)


def se_curve(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    rho_grid: Sequence[float],
) -> Curve:
    """Spectral efficiency against SNR per bit, swept over rho."""
    grid = _check_ascending(rho_grid, "rho")
    return _sweep(scheme, regime, params, grid, "rho", check_rho, lambda m: m.se)


def density_curve(
    scheme: Scheme,
    regime: Regime,
    params: SchemeParams,
    j_grid: Sequence[float],
) -> Curve:
    """User density (users per rdof = SE / params.L) against SNR per bit.

    Swept over the user count J at fixed rho.
    """
    grid = _check_ascending(j_grid, "J")
    return _sweep(scheme, regime, params, grid, "J", lambda j: check_J(j, params.T),
                  lambda m: m.se / params.L)


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
