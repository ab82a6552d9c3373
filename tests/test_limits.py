"""Closed-form asymptote tests: SE->0 floors, vanishing-SNR limits, buffer limits."""

import math

import pytest

from harqscale import (
    DegenerateRate,
    Hold,
    LimitKind,
    Regime,
    Scheme,
    SchemeParams,
    UnsupportedCombination,
    ebn0_cbuf_infinity_ir_tin,
    ebn0_floor,
    ebn0_rho_zero_limit,
    evaluate,
    make_grid,
    total_power,
)

LN2 = math.log(2.0)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------ floor values


def test_tin_floor_is_ln2_times_noise_power():
    for scheme in (Scheme.CC_NOMA, Scheme.CC_OMA):
        for sigma2 in (0.5, 1.0, 2.0):
            r = ebn0_floor(scheme, Regime.TIN, SchemeParams(rho=1.0, T=2, J=10.0, sigma2=sigma2))
            assert r.value_linear == LN2 * sigma2
            assert r.kind is LimitKind.FLOOR_SE_TO_ZERO
    one = ebn0_floor(Scheme.CC_NOMA, Regime.TIN, SchemeParams(rho=1.0, T=2, J=10.0))
    assert rel(one.value_db, -1.591745389548616) < 1e-12


def test_cc_noma_sum_floor_value():
    r = ebn0_floor(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0))
    assert rel(r.value_linear, 0.20386681781174862) < 1e-12


def test_floor_unsupported_pairs_raise():
    p = SchemeParams(rho=1.0, T=2, J=10.0)
    for scheme, regime in [
        (Scheme.CLASSICAL, Regime.SUM_OPTIMAL),
        (Scheme.CLASSICAL, Regime.TIN),
        (Scheme.CC_OMA, Regime.SUM_OPTIMAL),
        (Scheme.IR_OMA, Regime.SUM_OPTIMAL),
        (Scheme.IR_OMA, Regime.TIN),
    ]:
        with pytest.raises(UnsupportedCombination):
            ebn0_floor(scheme, regime, p)


def test_limit_result_db_field_consistent():
    r = ebn0_floor(Scheme.CC_NOMA, Regime.TIN, SchemeParams(rho=1.0, T=2, J=10.0, sigma2=2.0))
    assert r.value_db == 10.0 * math.log10(r.value_linear)


def test_floors_lower_bound_the_evaluators():
    # sweep 11 decades of per-symbol SNR; the closed-form floor is never crossed
    grid = make_grid(1e-8, 1e3, 45)
    cases = [
        (Scheme.CC_NOMA, Regime.TIN, dict(eta=1.0)),
        (Scheme.CC_OMA, Regime.TIN, dict()),
        (Scheme.CC_NOMA, Regime.SUM_OPTIMAL, dict(eta=1.0)),
    ]
    for scheme, regime, extra in cases:
        p0 = SchemeParams(rho=1.0, T=2, J=10.0, **extra)
        floor = ebn0_floor(scheme, regime, p0).value_linear
        for rho in grid:
            p = SchemeParams(rho=rho, T=2, J=10.0, **extra)
            assert evaluate(scheme, regime, p).ebn0_linear > floor


def test_cc_noma_tin_floor_attained_at_vanishing_snr():
    p = SchemeParams(rho=1e-6, T=2, J=10.0, eta=1.0)
    floor = ebn0_floor(Scheme.CC_NOMA, Regime.TIN, p).value_linear
    assert rel(evaluate(Scheme.CC_NOMA, Regime.TIN, p).ebn0_linear, floor) < 1e-2


# -------------------------------------------------------- vanishing-SNR limits


def test_rho_zero_fixed_total_power_values():
    # total power J rho sigma2 = 10 held fixed: the stated value is ln2 * P_tot
    # (the evaluator's own path does not end there; see the path tests below
    # and acceptance criterion 3)
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    r = ebn0_rho_zero_limit(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p, Hold.TOTAL_POWER)
    assert r.value_linear == LN2 * total_power(p)
    assert rel(r.value_linear, 6.931471805599453) < 1e-12
    assert r.kind is LimitKind.LIMIT_RHO_TO_ZERO


def test_rho_zero_fixed_user_count_value():
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    r = ebn0_rho_zero_limit(Scheme.CC_NOMA, Regime.TIN, p, Hold.USER_COUNT)
    assert r.value_linear == LN2 * p.sigma2


def test_rho_zero_classical_single_slot_and_ir_tin():
    p1 = SchemeParams(rho=1.0, T=1, J=1.0)
    r = ebn0_rho_zero_limit(Scheme.CLASSICAL, Regime.TIN, p1, Hold.TOTAL_POWER)
    assert rel(r.value_linear, LN2) < 1e-15
    p2 = SchemeParams(rho=1.0, T=2, J=10.0, c_buf=1.0)
    r2 = ebn0_rho_zero_limit(Scheme.IR_OMA, Regime.TIN, p2, Hold.TOTAL_POWER)
    assert r2.value_linear == LN2 * total_power(p2)


def test_rho_zero_unsupported_pairs_raise():
    p = SchemeParams(rho=1.0, T=2, J=10.0)
    cases = [
        (Scheme.CLASSICAL, Regime.TIN, Hold.TOTAL_POWER),  # needs T == 1
        (Scheme.CLASSICAL, Regime.SUM_OPTIMAL, Hold.TOTAL_POWER),
        (Scheme.CC_NOMA, Regime.SUM_OPTIMAL, Hold.USER_COUNT),
        (Scheme.CC_NOMA, Regime.TIN, Hold.TOTAL_POWER),
        (Scheme.CC_OMA, Regime.TIN, Hold.TOTAL_POWER),
        (Scheme.IR_OMA, Regime.SUM_OPTIMAL, Hold.TOTAL_POWER),
    ]
    for scheme, regime, hold in cases:
        with pytest.raises(UnsupportedCombination):
            ebn0_rho_zero_limit(scheme, regime, p, hold)


def test_rho_zero_limit_scales_linearly_with_total_power():
    base = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    scaled = SchemeParams(rho=1.0, T=2, J=40.0, eta=1.0)  # 4x the total power
    a = ebn0_rho_zero_limit(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, base, Hold.TOTAL_POWER)
    b = ebn0_rho_zero_limit(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, scaled, Hold.TOTAL_POWER)
    assert rel(b.value_linear, 4.0 * a.value_linear) < 1e-15
    assert abs((b.value_db - a.value_db) - 10.0 * math.log10(4.0)) < 1e-12


def test_fixed_total_power_path_against_stated_value():
    # along J = P_tot/(sigma2*rho), J >= T, the CC-NOMA sum SNR per bit
    # passes through the stated ln2*P_tot at P_tot = 1 but stays below it at
    # P_tot = 10 (log grid of J from T to 1e9)
    for p_tot, crosses in ((1.0, True), (10.0, False)):
        above = [
            evaluate(
                Scheme.CC_NOMA, Regime.SUM_OPTIMAL, SchemeParams(rho=p_tot / J, T=2, J=J, eta=1.0)
            ).ebn0_linear > LN2 * p_tot
            for J in make_grid(2.0, 1e9, 2000)
        ]
        assert (any(above) and not all(above)) is crosses
        assert not above[-1]


def test_fixed_total_power_paths_of_classical_and_ir_tin():
    # what the evaluators tend to along the fixed-P_tot path, next to the
    # stated ln2*P_tot: ln2*(P_tot + sigma2) for classical TIN at T = 1 and
    # ln2*(P_tot + T*sigma2) for IR-OMA TIN with a large buffer
    rho, p_tot = 1e-7, 1.0
    classical = evaluate(Scheme.CLASSICAL, Regime.TIN, SchemeParams(rho=rho, T=1, J=p_tot / rho))
    assert rel(classical.ebn0_linear, LN2 * (p_tot + 1.0)) < 1e-6
    ir = evaluate(Scheme.IR_OMA, Regime.TIN, SchemeParams(rho=rho, T=2, J=p_tot / rho, c_buf=1e4))
    assert rel(ir.ebn0_linear, LN2 * (p_tot + 2.0)) < 1e-6


def test_cc_noma_tin_fixed_users_limit_attained():
    # evaluator converges to the fixed-user-count limit as rho vanishes
    p_lim = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    lim = ebn0_rho_zero_limit(Scheme.CC_NOMA, Regime.TIN, p_lim, Hold.USER_COUNT).value_linear
    p = SchemeParams(rho=1e-6, T=2, J=10.0, eta=1.0)
    got = evaluate(Scheme.CC_NOMA, Regime.TIN, p).ebn0_linear
    assert rel(got, lim) < 1e-2


# ---------------------------------------------------------- infinite-buffer limit


def test_cbuf_infinity_matches_classical_tin_exactly():
    for p in (
        SchemeParams(rho=1.0, T=2, J=10.0, c_buf=0.1),
        SchemeParams(rho=0.3, T=4, J=12.0, c_buf=5.0),
    ):
        r = ebn0_cbuf_infinity_ir_tin(p)
        m = evaluate(Scheme.CLASSICAL, Regime.TIN, p)
        assert r.value_linear == m.ebn0_linear  # delegation, so bit-for-bit
        assert r.value_db == m.ebn0_db
        assert r.kind is LimitKind.LIMIT_CBUF_TO_INFINITY


def test_cbuf_infinity_reference_values():
    r = ebn0_cbuf_infinity_ir_tin(SchemeParams(rho=1.0, T=2, J=10.0))
    assert rel(r.value_linear, 7.603568033847861) < 1e-12
    r1 = ebn0_cbuf_infinity_ir_tin(SchemeParams(rho=1.0, T=1, J=1.0))
    assert r1.value_linear == 1.0


def test_ir_evaluator_converges_to_cbuf_infinity_limit():
    p = SchemeParams(rho=1.0, T=2, J=10.0, c_buf=1e4)
    lim = ebn0_cbuf_infinity_ir_tin(p).value_linear
    got = evaluate(Scheme.IR_OMA, Regime.TIN, p).ebn0_linear
    assert rel(got, lim) < 1e-6


def test_cbuf_infinity_rejects_zero_rate():
    with pytest.raises(DegenerateRate):
        ebn0_cbuf_infinity_ir_tin(SchemeParams(rho=0.0, T=2, J=10.0))


# ---------------------------------------------------------------- sanity checks


def test_limit_kind_wire_values():
    assert LimitKind.FLOOR_SE_TO_ZERO.value == "floor-se-to-zero"
    assert LimitKind.LIMIT_RHO_TO_ZERO.value == "limit-rho-to-zero"
    assert LimitKind.LIMIT_CBUF_TO_INFINITY.value == "limit-cbuf-to-infinity"


def test_oma_schemes_have_no_interference_floor_benefit():
    # the non-orthogonal sum-decoder floor sits strictly below the TIN floor
    # whenever the cross-signature term eta^2 (J/T - 1)^2 is positive
    p = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    sum_floor = ebn0_floor(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p).value_linear
    tin_floor = ebn0_floor(Scheme.CC_NOMA, Regime.TIN, p).value_linear
    assert sum_floor < tin_floor
