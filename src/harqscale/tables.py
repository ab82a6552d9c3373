"""Delimited-table serialization of curves.

Floats are written with ``repr``, which round-trips exactly (17 significant
digits at most, never fewer than the shortest exact form), so re-parsing a
table reproduces every value bit-for-bit.  Output is locale-independent:
'.' decimal separator, '\\n' line ends, keys sorted in JSON.
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


def curve_to_json(curve: Curve, version: str) -> str:
    doc = {
        "meta": {
            "scheme": curve.scheme.value,
            "regime": curve.regime.value,
            "params": asdict(curve.params),
            "skipped": curve.skipped,
            "version": version,
        },
        "sweep_var": curve.sweep_var,
        "grid": list(curve.grid),
        "points": [
            {
                "rho": p.rho,
                "ebn0_db": p.x_ebn0_db,
                "ebn0_linear": p.ebn0_linear,
                "y": p.y,
            }
            for p in curve.points
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
