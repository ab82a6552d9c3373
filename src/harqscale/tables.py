"""Delimited-table serialization of curves.

Floats are written with ``repr``, which round-trips exactly (17 significant
digits at most, never fewer than the shortest exact form), so re-parsing a
table reproduces every value bit-for-bit.  Output is locale-independent:
'.' decimal separator, '\\n' line ends, keys sorted in JSON.  The JSON text is
exactly ``json.dumps(doc, sort_keys=True, indent=2)`` of the curve's document,
but written from a fixed per-point template rather than by that call.  Each
point's floats are formatted once per curve and shared by both writers, so
writing a curve to CSV and then to JSON (or the reverse, or twice) formats
them once; every byte of either output is what formatting them anew gives.
"""

from __future__ import annotations

import json
from dataclasses import asdict

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


def _json_numbers(values: list[float]) -> list[str]:
    """Each number as json writes it: ``float.__repr__``, or NaN/Infinity/-Infinity.

    One call to json's C encoder formats them all.
    """
    return json.dumps(values)[1:-1].split(", ") if values else []


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
        "params": asdict(curve.params),
        "skipped": curve.skipped,
        "version": version,
    }
    grid = ["    " + g for g in _json_numbers(list(curve.grid))]
    reprs = _point_reprs(curve)
    it = map(_JSON_NON_FINITE.get, reprs, reprs)
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
