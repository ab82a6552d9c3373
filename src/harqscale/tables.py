"""Delimited-table serialization of curves.

One rule formats every number of either table, the one ``json.dumps``
applies: ``float.__repr__`` for a float (a float subclass such as
``numpy.float64`` included), which round-trips exactly, ``repr`` for anything
else, and in JSON the non-finite reprs as NaN, Infinity and -Infinity.
Output is locale-independent: '.' decimal separator, '\\n' line ends, keys
sorted in JSON.  The JSON text is exactly ``json.dumps(doc, sort_keys=True,
indent=2)`` of the curve's document, but not written by that call: each
writer lays its table out as one flat list of pieces, literal text and
numbers in turn, and makes the text with one ``"".join``.  Each point's
numbers are formatted once per curve and shared by both writers, so writing
a curve to CSV and then to JSON (or the reverse, or twice) formats them
once; JSON's grid reuses the rho of each point a grid value produced and
formats only the skipped values.  Every byte of either output is what
formatting them anew gives.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from operator import attrgetter, is_

from .sweep import Curve

CSV_HEADER = "sweep_var,rho_or_J,ebn0_db,ebn0_linear,se_or_density"

# json.dumps writes the three non-finite float reprs as these
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value) -> str:
    # json.dumps's rule, with the JSON spelling of the non-finite values left out
    return float.__repr__(value) if isinstance(value, float) else repr(value)


def _point_numbers(curve: Curve) -> tuple[list[str], ...]:
    """The points' rho, ebn0_db, ebn0_linear and y as ``_number`` writes
    them: four columns, in that order.

    Formatted on first use and kept in the curve's instance dict, which the
    dataclass's ==, repr, hash, asdict and replace never read.  The curve and
    its points are frozen, so the columns cannot go stale.
    """
    columns = curve.__dict__.get("_point_numbers")
    if columns is None:
        # an exact float takes the f-string, the fastest call of its repr
        columns = tuple(
            [f"{v!r}" if type(v) is float else _number(v) for v in map(field, curve.points)]
            for field in map(attrgetter, ("rho", "x_ebn0_db", "ebn0_linear", "y"))
        )
        curve.__dict__["_point_numbers"] = columns
    return columns


def curve_to_csv(curve: Curve) -> str:
    rho, db, lin, y = _point_numbers(curve)
    # per point the sweep variable and its four numbers, each after a separator
    pieces = [f"\n{curve.sweep_var},", "", ",", "", ",", "", ",", ""] * len(rho)
    pieces[1::8], pieces[3::8], pieces[5::8], pieces[7::8] = rho, db, lin, y
    pieces.insert(0, CSV_HEADER)
    pieces.append("\n")
    return "".join(pieces)


def _json_grid(curve: Curve, rho_numbers: list[str]) -> list[str]:
    """Each grid value as json writes it, given the points' rho as json writes them.

    A grid value that is a point's own ``rho`` object (``_sweep`` stores the
    grid's objects) takes that point's number, formatted once: ``is``, not
    ``==``, since one object has one repr, while 0.0 == -0.0.  The other grid
    values (skipped ones, or any in a curve not built by ``_sweep``) are
    formatted here by the same rule.
    """
    by_id = dict(zip(map(id, map(attrgetter("rho"), curve.points)), rho_numbers))
    numbers = list(map(by_id.get, map(id, curve.grid)))
    # the grid values no point holds
    for i in list(compress(range(len(numbers)), map(is_, numbers, repeat(None)))):
        text = _number(curve.grid[i])
        numbers[i] = _JSON_NON_FINITE.get(text, text)
    return numbers


def _json_list(pieces: list[str]) -> list[str]:
    """A top-level key's list value, from its items' pieces: each item's
    first piece starts with the ',' that parts it from the one before."""
    if not pieces:
        return ["[]"]
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n  ]")
    return pieces


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
    columns = _point_numbers(curve)
    if not all(map(_JSON_NON_FINITE.keys().isdisjoint, columns)):
        columns = [list(map(_JSON_NON_FINITE.get, c, c)) for c in columns]
    rho, db, lin, y = columns
    grid = [",\n    ", ""] * len(curve.grid)
    grid[1::2] = _json_grid(curve, rho)
    # one point of the "points" list, keys in sorted order, at the depth and
    # indent json.dumps(..., sort_keys=True, indent=2) gives it
    points = [',\n    {\n      "ebn0_db": ', "", ',\n      "ebn0_linear": ', "",
              ',\n      "rho": ', "", ',\n      "y": ', "", "\n    }"] * len(rho)
    points[1::9], points[3::9], points[5::9], points[7::9] = db, lin, rho, y
    return "".join([
        '{\n  "grid": ', *_json_list(grid),
        ',\n  "meta": ', json.dumps(meta, sort_keys=True, indent=2).replace("\n", "\n  "),
        ',\n  "points": ', *_json_list(points),
        ',\n  "sweep_var": ', json.dumps(curve.sweep_var), "\n}\n",
    ])
