"""Delimited-table serialization of curves.

One rule formats every number of either table: ``repr``, which round-trips
exactly, and in JSON the non-finite reprs as NaN, Infinity and -Infinity.
Output is locale-independent: '.' decimal separator, '\\n' line ends, keys
sorted in JSON.  The JSON text is exactly ``json.dumps(doc, sort_keys=True,
indent=2)`` of the curve's document, but written from a fixed per-point
template rather than by that call.  Each point's floats are formatted once
per curve and shared by both writers, so writing a curve to CSV and then to
JSON (or the reverse, or twice) formats them once; JSON's grid reuses the
rho of each point a grid value produced and formats only the skipped values.
Every byte of either output is what formatting them anew gives.
"""

from __future__ import annotations

import json

from .sweep import Curve

CSV_HEADER = "sweep_var,rho_or_J,ebn0_db,ebn0_linear,se_or_density"

# json.dumps writes the three non-finite float reprs as these
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _point_reprs(curve: Curve) -> list[str]:
    """``repr`` of each point's rho, ebn0_db, ebn0_linear and y, flat, in that order.

    Formatted on first use and kept in the curve's instance dict, which the
    dataclass's ==, repr, hash, asdict and replace never read.  The curve and
    its points are frozen, so the list cannot go stale.
    """
    reprs = curve.__dict__.get("_point_reprs")
    if reprs is None:
        reprs = [
            f"{v!r}" for p in curve.points for v in (p.rho, p.x_ebn0_db, p.ebn0_linear, p.y)
        ]
        curve.__dict__["_point_reprs"] = reprs
    return reprs


def curve_to_csv(curve: Curve) -> str:
    sweep_var = curve.sweep_var
    it = iter(_point_reprs(curve))
    lines = [CSV_HEADER]
    lines += [f"{sweep_var},{r},{db},{lin},{y}" for r, db, lin, y in zip(it, it, it, it)]
    return "\n".join(lines) + "\n"


def _json_list(items: list[str]) -> str:
    """A list of already-encoded items, laid out as a top-level key's value."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _json_grid(curve: Curve, rho_numbers: list[str]) -> list[str]:
    """Each grid value as json writes it, given the points' rho as json writes them.

    Grid and points are walked together: a grid value that produced a point
    is the point's own ``rho`` object (``_sweep`` stores it), so its number is
    the point's, formatted once.  ``is``, not ``==``: one object has one repr,
    while 0.0 == -0.0.  The other grid values (skipped ones, or any in a
    curve not built by ``_sweep``) are formatted here by the same rule.
    """
    numbers = []
    pairs = zip([p.rho for p in curve.points], rho_numbers)
    rho, number = next(pairs, (None, None))
    for g in curve.grid:
        if g is rho:
            numbers.append(number)
            rho, number = next(pairs, (None, None))
        else:
            text = f"{g!r}"
            numbers.append(_JSON_NON_FINITE.get(text, text))
    return numbers


def curve_to_json(curve: Curve, version: str) -> str:
    """The curve as ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``.

    The layout is fixed (keys grid, meta, points, sweep_var), so it is written
    directly: json.dumps with ``indent`` runs the pure-Python encoder, which
    took longer per point than the sweep itself.  Only the small ``meta``
    block still goes through json.dumps.
    """
    meta = {
        "scheme": curve.scheme.value,
        "regime": curve.regime.value,
        "params": vars(curve.params),
        "skipped": curve.skipped,
        "version": version,
    }
    reprs = _point_reprs(curve)
    numbers = list(map(_JSON_NON_FINITE.get, reprs, reprs))
    grid = ["    " + g for g in _json_grid(curve, numbers[0::4])]
    it = iter(numbers)
    # one point of the "points" list, keys in sorted order, at the depth and
    # indent json.dumps(..., sort_keys=True, indent=2) gives it
    points = [
        f'    {{\n      "ebn0_db": {db},\n      "ebn0_linear": {lin},\n'
        f'      "rho": {r},\n      "y": {y}\n    }}'
        for r, db, lin, y in zip(it, it, it, it)
    ]
    return (
        '{\n  "grid": ' + _json_list(grid)
        + ',\n  "meta": ' + json.dumps(meta, sort_keys=True, indent=2).replace("\n", "\n  ")
        + ',\n  "points": ' + _json_list(points)
        + ',\n  "sweep_var": ' + json.dumps(curve.sweep_var)
        + "\n}\n"
    )
