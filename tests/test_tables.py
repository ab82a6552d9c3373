"""Serialization tests: the direct JSON curve writer against json.dumps over
the same document, on SE and density curves, skipped points and edge grids."""

import json
import math
from dataclasses import asdict

import pytest

from harqscale import (
    Curve,
    CurvePoint,
    Regime,
    Scheme,
    SchemeParams,
    curve_to_json,
    density_curve,
    make_grid,
    se_curve,
)

VERSION = "0.1.0"

SE_GRIDS = {
    "log": make_grid(1e-3, 1e2, 40),
    "linear": make_grid(0.5, 50.0, 40, "linear"),
    "zero-start": make_grid(0.0, 10.0, 40, "linear"),
}

# the second set puts c_buf = inf (printed as Infinity) in meta
SE_PARAMS = (
    SchemeParams(rho=1.0, T=2, J=20.0, eta=0.3, c_buf=10.0),
    SchemeParams(rho=1.0, T=1, J=5.0, eta=1.0, c_buf=math.inf),
)


def reference_json(curve: Curve, version: str) -> str:
    """The document the writer lays out, through json.dumps."""
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
            {"rho": p.rho, "ebn0_db": p.x_ebn0_db, "ebn0_linear": p.ebn0_linear, "y": p.y}
            for p in curve.points
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("params", SE_PARAMS, ids=("cbuf10", "cbuf-inf"))
@pytest.mark.parametrize("grid", SE_GRIDS)
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_se_curve_json_is_json_dumps_of_the_document(scheme, regime, grid, params):
    curve = se_curve(scheme, regime, params, SE_GRIDS[grid])
    assert curve_to_json(curve, VERSION) == reference_json(curve, VERSION)


@pytest.mark.parametrize("scale", ["log", "zero-start"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_density_curve_json_is_json_dumps_of_the_document(scheme, regime, scale):
    grid = make_grid(1.0, 1e3, 30) if scale == "log" else make_grid(0.0, 1e3, 30, "linear")
    params = SchemeParams(rho=1.0, T=2, J=2.0, eta=0.3, c_buf=2.0)
    curve = density_curve(scheme, regime, params, grid)
    assert curve_to_json(curve, VERSION) == reference_json(curve, VERSION)


def test_json_of_a_mostly_skipped_curve():
    # J < T = 8 fails the J rule, so 35 of the 40 grid values are skipped
    params = SchemeParams(rho=1.0, T=8, J=8.0, eta=0.3)
    curve = density_curve(Scheme.CC_NOMA, Regime.TIN, params, make_grid(0.0, 9.0, 40, "linear"))
    assert curve.skipped == 35 and len(curve.points) == 5
    assert curve_to_json(curve, VERSION) == reference_json(curve, VERSION)


def test_json_of_a_one_point_grid():
    params = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0, c_buf=math.inf)
    curve = se_curve(Scheme.IR_OMA, Regime.TIN, params, (1.0,))
    text = curve_to_json(curve, VERSION)
    assert text == reference_json(curve, VERSION)
    assert '"c_buf": Infinity' in text


def test_json_writes_non_finite_values_and_empty_lists_as_json_does():
    point = CurvePoint(-math.inf, math.nan, 1e-300, math.inf)
    curve = Curve(Scheme.CLASSICAL, Regime.TIN, SchemeParams(), "rho", (point,), (), 3)
    text = curve_to_json(curve, VERSION)
    assert text == reference_json(curve, VERSION)
    assert '"grid": [],' in text and '"y": NaN' in text
