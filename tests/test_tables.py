"""Serialization tests: the direct JSON curve writer against json.dumps over
the same document, on SE and density curves, skipped points and edge grids,
and both writers against output formatted anew, in either order and repeated."""

import json
import math
from dataclasses import asdict, replace

import pytest

from harqscale import (
    CSV_HEADER,
    Curve,
    CurvePoint,
    Regime,
    Scheme,
    SchemeParams,
    curve_to_csv,
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


def reference_csv(curve: Curve) -> str:
    """The table with every float formatted anew, one f-string per point."""
    lines = [CSV_HEADER]
    for p in curve.points:
        lines.append(
            f"{curve.sweep_var},{p.rho!r},{p.x_ebn0_db!r},{p.ebn0_linear!r},{p.y!r}"
        )
    return "\n".join(lines) + "\n"


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


def non_finite_curve() -> Curve:
    point = CurvePoint(-math.inf, math.nan, 1e-300, math.inf)
    return Curve(Scheme.CLASSICAL, Regime.TIN, SchemeParams(), "rho", (point,), (), 3)


def test_json_writes_non_finite_values_and_empty_lists_as_json_does():
    curve = non_finite_curve()
    text = curve_to_json(curve, VERSION)
    assert text == reference_json(curve, VERSION)
    assert '"grid": [],' in text and '"y": NaN' in text


# ------------------------------------------------ both writers on one curve


WRITER_CURVES = {
    "se": lambda: se_curve(Scheme.CC_NOMA, Regime.TIN, SE_PARAMS[0], SE_GRIDS["zero-start"]),
    "se-ir": lambda: se_curve(Scheme.IR_OMA, Regime.SUM_OPTIMAL, SE_PARAMS[1], SE_GRIDS["log"]),
    "density": lambda: density_curve(
        Scheme.CC_OMA, Regime.TIN, SchemeParams(rho=1.0, T=2, J=2.0, eta=0.3, c_buf=2.0),
        make_grid(0.0, 1e3, 30, "linear"),
    ),
    "non-finite": non_finite_curve,
}


@pytest.mark.parametrize("order", [
    ("csv", "json"), ("json", "csv"), ("csv", "csv"), ("json", "json"),
], ids="-".join)
@pytest.mark.parametrize("make", WRITER_CURVES.values(), ids=WRITER_CURVES.keys())
def test_writers_in_either_order_and_repeated_match_fresh_formatting(make, order):
    curve = make()
    for writer in order:
        if writer == "csv":
            assert curve_to_csv(curve) == reference_csv(curve)
        else:
            assert curve_to_json(curve, VERSION) == reference_json(curve, VERSION)
    # what the writers keep on the curve is not part of its value
    fresh = make()
    assert curve == fresh and repr(curve) == repr(fresh)
    assert repr(asdict(curve)) == repr(asdict(fresh))


def test_a_replaced_curve_is_formatted_from_its_own_points():
    curve = WRITER_CURVES["se"]()
    curve_to_csv(curve)
    curve_to_json(curve, VERSION)
    other = replace(curve, points=curve.points[::2])
    assert curve_to_csv(other) == reference_csv(other)
    assert curve_to_json(other, VERSION) == reference_json(other, VERSION)


def test_json_grid_takes_a_point_rho_only_from_that_grid_value():
    # equal is not enough: 0.0 == -0.0 and 1 == 1.0, but their reprs differ
    points = (CurvePoint(0.0, 1.0, -0.0, 1.0), CurvePoint(0.5, 2.0, 1.0, 2.0))
    curve = Curve(Scheme.CLASSICAL, Regime.TIN, SchemeParams(), "rho", points, (0.0, 1, 2.5), 1)
    text = curve_to_json(curve, VERSION)
    assert text == reference_json(curve, VERSION)
    assert '"grid": [\n    0.0,\n    1,\n    2.5\n  ]' in text


def test_skipped_non_finite_and_signed_zero_grid_values_are_written_as_json_does():
    # -inf, -1.0, inf and nan fail the rho rule, and -0.0 passes it but makes
    # the SNR per bit 0/0 (DegenerateRate): five skipped values, two points
    params = SchemeParams(rho=1.0, T=2, J=10.0, eta=0.3)
    grid = (-math.inf, -1.0, -0.0, 0.5, 2.0, math.inf, math.nan)
    curve = se_curve(Scheme.CC_NOMA, Regime.TIN, params, grid)
    assert curve.skipped == 5
    text = curve_to_json(curve, VERSION)
    assert text == reference_json(curve, VERSION)
    assert curve_to_csv(curve) == reference_csv(curve)
    assert '"grid": [\n    -Infinity,\n    -1.0,\n    -0.0,\n    0.5,\n    2.0,\n' \
           '    Infinity,\n    NaN\n  ]' in text


def test_numpy_floats_are_written_as_the_equal_python_floats():
    # numpy.float64 is a float subclass whose repr is "np.float64(2.0)";
    # json.dumps writes it with float.__repr__, and so do both writers
    import numpy as np

    def curve_of(number):
        grid = tuple(map(number, (0.5, 1.0, 2.0, math.nan)))
        points = (
            CurvePoint(number(-3.0), number(0.25), grid[0], number(0.5)),
            CurvePoint(number(1e-300), number(math.inf), grid[2], number(2.0)),
        )
        return Curve(Scheme.CLASSICAL, Regime.TIN, SchemeParams(), "rho", points, grid, 2)

    numpy_curve, float_curve = curve_of(np.float64), curve_of(float)
    assert curve_to_csv(numpy_curve) == curve_to_csv(float_curve)
    text = curve_to_json(numpy_curve, VERSION)
    assert text == curve_to_json(float_curve, VERSION) == reference_json(numpy_curve, VERSION)
    assert json.loads(text)["grid"][:3] == [0.5, 1.0, 2.0]
