"""Sweep-engine tests: grid construction, SE and density curves, minimum
SNR-per-bit extraction, and sum/TIN curve crossings."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

import harqscale.sweep
from harqscale.closedform import _log2, _sq, decibels, rate_function
from harqscale import (
    Curve,
    CurvePoint,
    EmptyCurve,
    HarqScaleError,
    Metrics,
    Regime,
    Scheme,
    SchemeParams,
    density_curve,
    evaluate,
    find_crossing,
    make_grid,
    min_ebn0,
    se_curve,
)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------------ grids


def test_make_grid_log_endpoints_and_spacing():
    g = make_grid(1e-2, 1e2, 5)
    assert len(g) == 5
    assert rel(g[0], 1e-2) < 1e-12 and rel(g[-1], 1e2) < 1e-12
    ratios = [b / a for a, b in zip(g, g[1:])]
    assert max(ratios) - min(ratios) < 1e-9  # geometric


def test_make_grid_linear():
    assert make_grid(0.0, 1.0, 3, scale="linear") == (0.0, 0.5, 1.0)


# -------------------------------------------------------------------- SE curves


def test_se_curve_single_user_baseline_point():
    p = SchemeParams(rho=1.0, T=1, J=1.0)
    c = se_curve(Scheme.CLASSICAL, Regime.SUM_OPTIMAL, p, (1.0,))
    assert len(c.points) == 1 and c.skipped == 0
    pt = c.points[0]
    assert pt.x_ebn0_db == 0.0 and pt.y == 0.5 and pt.rho == 1.0 and pt.ebn0_linear == 1.0


def test_se_curve_reference_point():
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    c = se_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p, (1.0,))
    pt = c.points[0]
    assert rel(pt.x_ebn0_db, 2.8994333733384425) < 1e-12
    assert rel(pt.y, 2.564641508472483) < 1e-12


def test_se_curve_metadata_and_order():
    grid = make_grid(0.1, 10.0, 7)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    c = se_curve(Scheme.CC_NOMA, Regime.TIN, p, grid)
    assert c.scheme is Scheme.CC_NOMA and c.regime is Regime.TIN
    assert c.sweep_var == "rho" and c.grid == grid
    assert [pt.rho for pt in c.points] == list(grid)
    ys = [pt.y for pt in c.points]
    assert ys == sorted(ys)  # SE grows with rho


def test_se_curve_skips_degenerate_grid_values():
    p = SchemeParams(rho=1.0, T=1, J=1.0)
    c = se_curve(Scheme.CLASSICAL, Regime.SUM_OPTIMAL, p, (0.0, 1.0))
    assert c.skipped == 1 and len(c.points) == 1


def test_tin_curve_left_edge_sits_at_the_floor():
    # pushing rho down to 1e-6 walks the TIN curve into its -1.59 dB wall
    grid = make_grid(1e-6, 1.0, 80)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    c = se_curve(Scheme.CC_NOMA, Regime.TIN, p, grid)
    assert abs(c.points[0].x_ebn0_db - (-1.591745389548616)) < 0.05


# --------------------------------------------------------------- density curves


def test_density_curve_is_se_over_payload_bitwise():
    grid = make_grid(2.0, 50.0, 9)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0, L=100.0)
    c = density_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p, grid)
    assert c.sweep_var == "J"
    for pt in c.points:
        m = evaluate(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, SchemeParams(
            rho=1.0, T=2, J=pt.rho, eta=1.0, L=100.0))
        assert pt.y == m.se / 100.0
        assert pt.x_ebn0_db == m.ebn0_db


def test_density_curve_payload_override():
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0, L=100.0)
    c100 = density_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p, (10.0,))
    c50 = density_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, replace(p, L=50.0), (10.0,))
    assert rel(c100.points[0].y, 0.02564641508472483) < 1e-12
    assert c50.points[0].y == c100.points[0].y * 2.0


def test_density_curve_skips_j_below_slot_count():
    # J values under T fail parameter validation and are counted, not fatal
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    c = density_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p, (1.0, 2.0, 10.0))
    assert c.skipped == 1
    assert [pt.rho for pt in c.points] == [2.0, 10.0]


# ------------------------------------------------- the sweep is evaluate, bitwise


def ascending(values):
    return st.lists(values, min_size=1, max_size=12, unique=True).map(sorted)


# rho = 0, negative rho and rho = inf fail the rho rule; J below T fails the J rule
rho_values = st.one_of(
    st.sampled_from([0.0, -1.0, math.inf]), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)
)
j_values = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.5, 200.0))


def evaluate_at(scheme, regime, params, sweep_var, value):
    """evaluate at one grid value, the field rule applied by replace; None
    where either raises an error that skips a point."""
    try:
        return evaluate(scheme, regime, replace(params, **{sweep_var: value}))
    except (HarqScaleError, ValueError):
        return None


def assert_sweep_is_evaluate_bitwise(curve_fn, sweep_var, y_of, scheme, regime, params, grid):
    try:
        want = [(value, evaluate_at(scheme, regime, params, sweep_var, value)) for value in grid]
    except ZeroDivisionError:  # a rate that rounds to 0 escapes the sweep too
        with pytest.raises(ZeroDivisionError):
            curve_fn(scheme, regime, params, grid)
        return
    survivors = [(value, m) for value, m in want if m is not None]
    if not survivors:
        with pytest.raises(EmptyCurve):
            curve_fn(scheme, regime, params, grid)
        return
    curve = curve_fn(scheme, regime, params, grid)
    assert (curve.scheme, curve.regime, curve.params, curve.sweep_var, curve.grid) \
        == (scheme, regime, params, sweep_var, tuple(grid))
    assert curve.skipped == len(grid) - len(survivors)
    # repr tells -0.0 from 0.0 and keeps every bit, where == would not
    assert [tuple(map(repr, (p.rho, p.x_ebn0_db, p.y, p.ebn0_linear))) for p in curve.points] \
        == [tuple(map(repr, (value, m.ebn0_db, y_of(m), m.ebn0_linear)))
            for value, m in survivors]


# J up to 1e200 overflows the SINR, c_buf = 1e-300 at T >= 2 leaves an IR-OMA
# buffer growth of 0 and c_buf = inf clamps IR-OMA TIN's quantization noise
edge_params = st.integers(1, 8).flatmap(lambda T: st.builds(
    SchemeParams,
    rho=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    T=st.just(T),
    J=st.one_of(st.floats(T, 50.0), st.floats(T, 1e200), st.sampled_from([1e160, 1e200])),
    eta=st.floats(0.0, 1.0),
    sigma2=st.floats(1e-3, 1e3),
    B=st.integers(1, 4),
    c_buf=st.sampled_from([1e-300, 0.5, 10.0, math.inf]),
    L=st.floats(1.0, 1e3),
))
edge_j_values = st.one_of(j_values, st.floats(0.5, 1e200), st.sampled_from([1e160, 1e200]))


@given(scheme=st.sampled_from(Scheme), regime=st.sampled_from(Regime), params=edge_params,
       grid=ascending(rho_values))
@settings(max_examples=300, deadline=None)
def test_se_curve_is_evaluate_bit_for_bit(scheme, regime, params, grid):
    assert_sweep_is_evaluate_bitwise(se_curve, "rho", lambda m: m.se,
                                     scheme, regime, params, grid)


@given(scheme=st.sampled_from(Scheme), regime=st.sampled_from(Regime), params=edge_params,
       grid=ascending(edge_j_values))
@settings(max_examples=300, deadline=None)
def test_density_curve_is_evaluate_bit_for_bit(scheme, regime, params, grid):
    assert_sweep_is_evaluate_bitwise(density_curve, "J", lambda m: m.se / params.L,
                                     scheme, regime, params, grid)


# dense grids: the sweep evaluates a grid as numpy columns, which the
# properties above exercise on at most 12 values; these hold 2,001 and more
DENSE_GRIDS = {
    "rho": {"log": make_grid(1e-3, 1e2, 2001), "lin0": make_grid(0.0, 100.0, 2001, "linear")},
    # J < T, and J = 1e160 and 1e200, whose squares overflow
    "J": {"log": make_grid(1.0, 1e3, 2001) + (1e160, 1e200),
          "lin0": make_grid(0.0, 1e3, 2001, "linear") + (1e160, 1e200)},
}


def assert_dense_sweep_is_evaluate(curve_fn, sweep_var, y_of, scheme, regime, params, grid):
    """The sweep is evaluate value by value, and every point holds Python
    floats, with its rho the grid's own object, in grid order."""
    assert_sweep_is_evaluate_bitwise(curve_fn, sweep_var, y_of, scheme, regime, params, grid)
    try:
        curve = curve_fn(scheme, regime, params, grid)
    except (ZeroDivisionError, EmptyCurve):
        return  # and so does evaluate: checked above
    grid_objects = iter(grid)
    for p in curve.points:
        assert all(type(v) is float for v in vars(p).values())
        assert any(p.rho is g for g in grid_objects)


@pytest.mark.parametrize("T", [1, 2, 8])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_dense_curves_are_evaluate_bit_for_bit(scheme, regime, T):
    for grid in DENSE_GRIDS["rho"].values():
        params = SchemeParams(rho=1.0, T=T, J=20.0, eta=0.3, c_buf=10.0)
        assert_dense_sweep_is_evaluate(se_curve, "rho", lambda m: m.se,
                                       scheme, regime, params, grid)
    for grid in DENSE_GRIDS["J"].values():
        params = SchemeParams(rho=1.0, T=T, J=float(T), eta=0.3, c_buf=10.0)
        assert_dense_sweep_is_evaluate(density_curve, "J", lambda m: m.se / params.L,
                                       scheme, regime, params, grid)


def test_a_column_is_squared_and_logged_as_each_float_is():
    # numpy's x ** 2 is x * x, and np.log is not math.log: on about 800 of
    # these values each differs from the float call in the last bit
    import numpy as np

    column = np.random.default_rng(0).uniform(0.0, 1e3, 100_000)
    for form in (_sq, _log2, decibels):
        assert form(column).tolist() == [form(v) for v in column.tolist()]


@pytest.mark.parametrize("tiny_rho", [(), (1e-20,)], ids=["", "rho-1e-20"])
@pytest.mark.parametrize("c_buf", [10.0, 1e-300])
@pytest.mark.parametrize("T", [1, 2, 8])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_grid_mixing_good_and_failing_values_follows_the_float_rule(
        scheme, regime, T, c_buf, tiny_rho):
    # rho = -1.0, inf and nan fail the rho rule and rho = 0 makes 0/0;
    # c_buf = 1e-300 leaves IR-OMA at T >= 2 no buffer growth, and CC-NOMA
    # TIN's rate at rho = 1e-20 rounds to 0
    grid = (-1.0, 0.0, *tiny_rho, *make_grid(1e-3, 1e2, 500), math.inf, math.nan)
    params = SchemeParams(rho=1.0, T=T, J=20.0, eta=0.3, c_buf=c_buf)
    assert_dense_sweep_is_evaluate(se_curve, "rho", lambda m: m.se,
                                   scheme, regime, params, grid)


def test_a_rate_that_rounds_to_zero_escapes_the_sweep():
    # CC-NOMA TIN's rate at rho = 1e-20 rounds to 0 and the SNR per bit
    # divides by it: a ZeroDivisionError, not a skipped point, until the
    # evaluator names a rate that rounds to 0
    with pytest.raises(ZeroDivisionError):
        se_curve(Scheme.CC_NOMA, Regime.TIN, SchemeParams(), (1e-20, 1.0))


def test_sweep_lets_errors_other_than_value_errors_escape(monkeypatch):
    # only HarqScaleError and ValueError mark a point as skipped; the sweep
    # builds each curve's rate function through its module global
    def rate_function_failing_at_half(scheme, regime, params):
        rate = rate_function(scheme, regime, params)

        def failing_at_half(rho, J):
            if rho == 0.5:
                raise ZeroDivisionError("float division by zero")
            return rate(rho, J)
        return failing_at_half

    monkeypatch.setattr(harqscale.sweep, "rate_function", rate_function_failing_at_half)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    assert len(se_curve(Scheme.CC_NOMA, Regime.TIN, p, (0.25, 1.0)).points) == 2
    with pytest.raises(ZeroDivisionError):
        se_curve(Scheme.CC_NOMA, Regime.TIN, p, (0.25, 0.5, 1.0))


# ------------------------------------------- records built without __init__


def assert_same_as_constructed(record):
    """The record equals, prints and hashes as its dataclass constructor's
    record of the same values, holds exactly the declared fields, and
    refuses assignment to each of them."""
    cls = type(record)
    names = [f.name for f in fields(cls)]
    assert list(vars(record)) == names
    built = cls(*(getattr(record, name) for name in names))
    assert record == built and repr(record) == repr(built) and hash(record) == hash(built)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1.0)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_records_from_evaluate_and_both_sweeps_match_their_constructors(scheme, regime):
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=0.3, c_buf=10.0)
    metrics = evaluate(scheme, regime, p)
    assert type(metrics) is Metrics
    assert_same_as_constructed(metrics)
    se = se_curve(scheme, regime, p, make_grid(0.0, 10.0, 8, "linear"))
    density = density_curve(scheme, regime, p, make_grid(1.0, 1e3, 8))
    for point in se.points + density.points:
        assert type(point) is CurvePoint
        assert_same_as_constructed(point)


# -------------------------------------------------------------------- min ebn0


def test_min_ebn0_finds_the_tin_floor():
    grid = make_grid(1e-6, 10.0, 200)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    x, y = min_ebn0(se_curve(Scheme.CC_NOMA, Regime.TIN, p, grid))
    assert abs(x - (-1.591745389548616)) < 0.05
    assert y > 0.0


def test_min_ebn0_single_user_wideband_point():
    grid = make_grid(1e-6, 10.0, 200)
    p = SchemeParams(rho=1.0, T=1, J=1.0)
    x, _ = min_ebn0(se_curve(Scheme.CLASSICAL, Regime.TIN, p, grid))
    assert abs(x - (-1.591745389548616)) < 0.05


def test_min_ebn0_tie_prefers_larger_y():
    p = SchemeParams(rho=1.0, T=1, J=1.0)
    pts = (CurvePoint(1.0, 0.2, 0.5, 10 ** 0.1), CurvePoint(1.0, 0.7, 1.0, 10 ** 0.1))
    c = Curve(Scheme.CLASSICAL, Regime.TIN, p, "rho", pts, (0.5, 1.0), 0)
    assert min_ebn0(c) == (1.0, 0.7)


def test_min_ebn0_single_point_curve():
    p = SchemeParams(rho=1.0, T=1, J=1.0)
    c = se_curve(Scheme.CLASSICAL, Regime.SUM_OPTIMAL, p, (1.0,))
    assert min_ebn0(c) == (0.0, 0.5)


# -------------------------------------------------------------------- crossings


def _oma_pair(grid):
    p = SchemeParams(rho=1.0, T=2, J=10.0)
    a = se_curve(Scheme.CC_OMA, Regime.SUM_OPTIMAL, p, grid)
    b = se_curve(Scheme.CC_OMA, Regime.TIN, p, grid)
    return a, b


def test_sum_and_tin_curves_cross_once():
    # at low SNR TIN tracks the sum decoder; at high SNR interference caps it,
    # so the order of the two SE curves flips exactly once on this range
    grid = make_grid(1e-3, 1e2, 120)
    a, b = _oma_pair(grid)
    x = find_crossing(a, b)
    assert x is not None
    assert 3.0 < x < 6.0  # lands near 4.27 dB
    assert find_crossing(b, a) == x  # symmetric in the argument order


def test_crossing_interpolates_between_bracketing_points():
    grid = make_grid(1e-3, 1e2, 120)
    a, b = _oma_pair(grid)
    x = find_crossing(a, b)
    diffs = [(pa.x_ebn0_db + pb.x_ebn0_db) / 2.0 for pa, pb in zip(a.points, b.points)]
    signs = [pa.y - pb.y for pa, pb in zip(a.points, b.points)]
    brackets = [
        (diffs[i], diffs[i + 1])
        for i in range(len(signs) - 1)
        if signs[i] * signs[i + 1] < 0.0
    ]
    lo, hi = brackets[0]
    assert lo <= x <= hi


def test_identical_curves_never_cross():
    grid = make_grid(0.1, 10.0, 20)
    p = SchemeParams(rho=1.0, T=2, J=10.0)
    a = se_curve(Scheme.CC_OMA, Regime.TIN, p, grid)
    b = se_curve(Scheme.CC_OMA, Regime.TIN, p, grid)
    assert find_crossing(a, b) is None


# ----------------------------------------------------------------- trend checks


def test_retransmission_count_trends():
    # more chase-combining rounds: the sum decoder loses multiplexing, TIN
    # climbs out of its interference limit, for both spreading disciplines
    def se_of(scheme, regime, T):
        p = SchemeParams(rho=1.0, T=T, J=10.0, eta=1.0, c_buf=10.0 * T)
        return evaluate(scheme, regime, p).se

    sum_noma = [se_of(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, T) for T in (1, 2, 3)]
    assert sum_noma[0] > sum_noma[1] > sum_noma[2]
    tin_noma = [se_of(Scheme.CC_NOMA, Regime.TIN, T) for T in (1, 2, 3)]
    assert tin_noma[0] < tin_noma[1] < tin_noma[2]
    tin_oma = [se_of(Scheme.CC_OMA, Regime.TIN, T) for T in (1, 2, 3)]
    assert tin_oma[0] < tin_oma[1] < tin_oma[2]
