"""Delimited-table serialization of curves.

Floats are written with ``repr``, which round-trips exactly (17 significant
digits at most, never fewer than the shortest exact form), so re-parsing a
table reproduces every value bit-for-bit.  Output is locale-independent:
'.' decimal separator, '\\n' line ends, keys sorted in JSON.  The JSON text is
exactly ``json.dumps(doc, sort_keys=True, indent=2)`` of the curve's document,
but written from a fixed per-point template rather than by that call.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .sweep import Curve

CSV_HEADER = "sweep_var,rho_or_J,ebn0_db,ebn0_linear,se_or_density"


def curve_to_csv(curve: Curve) -> str:
    lines = [CSV_HEADER]
    for p in curve.points:
        lines.append(
            f"{curve.sweep_var},{p.rho!r},{p.x_ebn0_db!r},{p.ebn0_linear!r},{p.y!r}"
        )
    return "\n".join(lines) + "\n"


# One point of the "points" list, keys in sorted order, at the depth and
# indent json.dumps(..., sort_keys=True, indent=2) gives it.
_POINT = (
    '    {{\n      "ebn0_db": {},\n      "ebn0_linear": {},\n'
    '      "rho": {},\n      "y": {}\n    }}'
)


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
    numbers = _json_numbers(
        [v for p in curve.points for v in (p.x_ebn0_db, p.ebn0_linear, p.rho, p.y)]
    )
    points = [_POINT.format(*numbers[i:i + 4]) for i in range(0, len(numbers), 4)]
    return (
        '{\n  "grid": ' + _json_list(grid)
        + ',\n  "meta": ' + json.dumps(meta, sort_keys=True, indent=2).replace("\n", "\n  ")
        + ',\n  "points": ' + _json_list(points)
        + ',\n  "sweep_var": ' + json.dumps(curve.sweep_var)
        + "\n}\n"
    )
