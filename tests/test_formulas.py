"""Closed-form evaluator tests: spot values, edge behavior, and algebraic properties.

Reference values come from tests/rederive_expected.py, which recomputes every
number symbolically with mpmath at 50 digits and no imports from the package.
The literals frozen below are that script's output; the acceptance gate
re-imports the script live so the two can never drift silently.
"""

import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harqscale import (
    Metrics,
    Regime,
    Scheme,
    SchemeParams,
    analytic_sinr,
    buffer_rate_from_quant_noise,
    evaluate,
    fbl_rate,
    ir_quant_noise,
    make_equicorrelated_signatures,
    make_grid,
    qinv,
    se_curve,
    simulate_cc_noma_sinr,
    total_power,
)
from harqscale.params import T_MAX, J_in_range, rho_in_range
from harqscale.tables import curve_to_json

LN2 = math.log(2.0)

# frozen output of tests/rederive_expected.py (mpmath, 50 digits, rounded to float)
REF = {
    "classical_sum_se": 1.292481250360578,
    "classical_sum_ebn0": 7.737056144690832,
    "classical_tin_se": 0.6575860145844846,
    "classical_tin_ebn0": 7.603568033847861,
    "cc_noma_sum_se": 2.564641508472483,
    "cc_noma_sum_ebn0": 1.949590218937863,
    "cc_noma_tin_se": 0.21222224396628253,
    "cc_noma_tin_ebn0": 23.560207010130334,
    "cc_oma_sum_se": 1.403677461028802,
    "cc_oma_sum_ebn0": 3.5620718710802217,
    "cc_oma_tin_se": 1.2135670679256043,
    "cc_oma_tin_ebn0": 4.120085434212291,
    "ir_oma_sum_se": 1.5546058797833755,
    "ir_oma_sum_ebn0": 3.2162492532813,
    "ir_oma_tin_se": 0.5101880170713158,
    "ir_oma_tin_ebn0": 9.800308577810215,
}

# the workhorse parameter point used for all cross-scheme spot checks
P_REF = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0, sigma2=1.0, B=1, c_buf=2.0)
P_REF_TIN_IR = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0, sigma2=1.0, B=1, c_buf=0.1)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- spot values


@pytest.mark.parametrize(
    "scheme, regime, key",
    [
        (Scheme.CLASSICAL, Regime.SUM_OPTIMAL, "classical_sum"),
        (Scheme.CLASSICAL, Regime.TIN, "classical_tin"),
        (Scheme.CC_NOMA, Regime.SUM_OPTIMAL, "cc_noma_sum"),
        (Scheme.CC_NOMA, Regime.TIN, "cc_noma_tin"),
        (Scheme.CC_OMA, Regime.SUM_OPTIMAL, "cc_oma_sum"),
        (Scheme.CC_OMA, Regime.TIN, "cc_oma_tin"),
    ],
)
def test_cc_spot_values(scheme, regime, key):
    m = evaluate(scheme, regime, P_REF)
    assert rel(m.se, REF[key + "_se"]) < 1e-12
    assert rel(m.ebn0_linear, REF[key + "_ebn0"]) < 1e-12


@pytest.mark.parametrize(
    "params, regime, key",
    [
        (P_REF, Regime.SUM_OPTIMAL, "ir_oma_sum"),
        (P_REF_TIN_IR, Regime.TIN, "ir_oma_tin"),
    ],
)
def test_ir_spot_values(params, regime, key):
    m = evaluate(Scheme.IR_OMA, regime, params)
    assert rel(m.se, REF[key + "_se"]) < 1e-12
    assert rel(m.ebn0_linear, REF[key + "_ebn0"]) < 1e-12


def test_single_user_single_slot_baseline():
    # rho = T = J = sigma2 = 1: SE is half a bit and the energy ratio is 1 (0 dB)
    m = evaluate(Scheme.CLASSICAL, Regime.SUM_OPTIMAL, SchemeParams(rho=1.0, T=1, J=1.0))
    assert m.se == 0.5
    assert m.ebn0_linear == 1.0
    assert m.ebn0_db == 0.0


def test_cc_noma_tin_fully_loaded_slot_ignores_eta():
    # J == T puts one user per slot, so the eta-scaled cross term vanishes
    vals = []
    for eta in (0.0, 0.3, 1.0):
        p = SchemeParams(rho=1.0, T=2, J=2.0, eta=eta)
        vals.append(evaluate(Scheme.CC_NOMA, Regime.TIN, p))
    assert vals[0] == vals[1] == vals[2]
    assert rel(vals[0].se, 0.792481250360578) < 1e-12


def test_cc_noma_orthogonal_full_load_reduces_to_single_user_mrc():
    # eta = 0 and J = T: interference-free chase combining, SINR = rho * T
    for rho, T in [(1.0, 2), (0.25, 4), (3.0, 3)]:
        p = SchemeParams(rho=rho, T=T, J=float(T), eta=0.0)
        m = evaluate(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p)
        assert rel(m.se, 0.5 * math.log2(1.0 + rho * T)) < 1e-12


def test_ir_single_slot_value():
    m = evaluate(Scheme.IR_OMA, Regime.SUM_OPTIMAL, SchemeParams(rho=1.0, T=1, J=10.0))
    assert rel(m.se, 1.7297158093186487) < 1e-12
    assert rel(m.ebn0_linear, 2.890648263178879) < 1e-12


def test_total_power_product():
    assert total_power(SchemeParams(rho=1.0, T=2, J=10.0)) == 10.0
    assert total_power(SchemeParams(rho=0.5, T=1, J=8.0, sigma2=2.0)) == 8.0


def test_ebn0_db_is_exactly_ten_log10_of_linear():
    for scheme in Scheme:
        for regime in Regime:
            for rho in (0.01, 1.0, 37.5):
                m = evaluate(scheme, regime, SchemeParams(rho=rho, T=2, J=10.0, eta=0.5, c_buf=3.0))
                assert m.ebn0_db == 10.0 * math.log10(m.ebn0_linear)


# ------------------------------------------------------------ quantization noise


def test_quant_noise_sum_example():
    q = ir_quant_noise(P_REF, Regime.SUM_OPTIMAL, 1, 1)
    assert rel(q.value, 11.0 / 15.0) < 1e-12
    assert not q.clamped


def test_quant_noise_tin_example():
    q = ir_quant_noise(P_REF_TIN_IR, Regime.TIN, 1, 1)
    assert rel(q.value, 4.4500479177451515) < 1e-12
    assert not q.clamped


def test_quant_noise_tin_clamps_when_buffer_is_large():
    # with c_buf = 2 the refinement description is already finer than the
    # residual interference, so the analytic expression goes negative
    q = ir_quant_noise(P_REF, Regime.TIN, 1, 1)
    assert q.value == 0.0
    assert q.clamped


def test_quant_noise_tin_clamp_threshold():
    # clamp boundary at c_buf* = (h B / 2) log2(1 + (rho + B) / ((J/h - 1) rho))
    c_star = 0.14475330859749244
    below = ir_quant_noise(
        SchemeParams(rho=1.0, T=2, J=10.0, c_buf=c_star * (1 - 1e-6)), Regime.TIN, 1, 1
    )
    above = ir_quant_noise(
        SchemeParams(rho=1.0, T=2, J=10.0, c_buf=c_star * (1 + 1e-6)), Regime.TIN, 1, 1
    )
    assert below.value > 0.0 and not below.clamped
    assert above.value == 0.0 and above.clamped


def test_quant_noise_zero_on_final_slot_only():
    p = SchemeParams(rho=1.0, T=3, J=10.0, c_buf=1.0)
    for regime in Regime:
        q = ir_quant_noise(p, regime, 3, 2)
        assert q.value == 0.0 and not q.clamped
        assert ir_quant_noise(p, regime, 1, 2).value > 0.0 or regime is Regime.TIN
        assert ir_quant_noise(p, regime, 2, 2).value == ir_quant_noise(p, regime, 1, 2).value


def test_quant_noise_survives_huge_buffers():
    # 2**(2 c_buf / (h B)) overflows float; the noise power must come back 0
    p = SchemeParams(rho=1.0, T=2, J=10.0, c_buf=1e6)
    assert ir_quant_noise(p, Regime.SUM_OPTIMAL, 1, 1).value == 0.0
    q = ir_quant_noise(p, Regime.TIN, 1, 1)
    assert q.value == 0.0 and q.clamped


@given(
    rho=st.floats(1e-3, 1e3),
    cb=st.floats(0.05, 50.0),
    j_mult=st.floats(1.0, 40.0),
    T=st.integers(2, 6),
    B=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_buffer_rate_round_trip(rho, cb, j_mult, T, B):
    # feeding the noise power back through the rate map recovers c_buf/horizon
    for horizon in (T - 1, T):
        p = SchemeParams(rho=rho, T=T, J=T * j_mult, B=B, c_buf=cb)
        q = ir_quant_noise(p, Regime.SUM_OPTIMAL, 1, horizon)
        if q.value == 0.0:
            continue  # overflow guard region: nothing to invert
        rate = buffer_rate_from_quant_noise(p, q.value)
        assert rel(rate, cb / horizon) < 1e-12


# --------------------------------------------------------- IR slot-level algebra


def _ir_tin_unclamped_reference(p: SchemeParams) -> Metrics:
    """Independent route: per-slot effective-interference coefficients."""
    h = p.T - 1
    grow = 2.0 ** (2.0 * p.c_buf / (h * p.B))
    acc = 0.0
    for t in range(1, p.T + 1):
        if t == p.T:
            zeta = p.J / p.T - 1.0
        else:
            zeta = p.J / p.T - p.J / h + (1.0 + p.B / p.rho) / (grow - 1.0)
        sinr = (p.rho / p.B) / ((p.rho / p.B) * zeta + 1.0)
        acc += math.log2(1.0 + sinr)
    se = (p.J * p.B / (2.0 * p.T * p.T)) * acc
    ebn0 = p.T * p.sigma2 * p.rho / ((p.B / p.T) * acc)
    return se, ebn0


@given(
    rho=st.floats(0.05, 50.0),
    cb=st.floats(0.01, 0.2),
    j_mult=st.floats(1.5, 20.0),
    T=st.integers(2, 5),
)
@settings(max_examples=150, deadline=None)
def test_ir_tin_matches_interference_coefficient_route(rho, cb, j_mult, T):
    p = SchemeParams(rho=rho, T=T, J=T * j_mult, c_buf=cb)
    if ir_quant_noise(p, Regime.TIN, 1, T - 1).clamped:
        return  # coefficient route only covers the unclamped branch
    se_ref, ebn0_ref = _ir_tin_unclamped_reference(p)
    m = evaluate(Scheme.IR_OMA, Regime.TIN, p)
    assert rel(m.se, se_ref) < 1e-9
    assert rel(m.ebn0_linear, ebn0_ref) < 1e-9


def test_ir_sum_slot_sinr_closed_form():
    # t < T slots: SINR = (rho J / B)(E - 1)/(E + rho J / B) with E the buffer growth
    p = P_REF
    grow = 2.0 ** (2.0 * p.c_buf / ((p.T - 1) * p.B))
    expect_first = (p.rho * p.J / p.B) * (grow - 1.0) / (grow + p.rho * p.J / p.B)
    assert rel(expect_first, 150.0 / 26.0) < 1e-12  # 5.7692... for the reference point
    q = ir_quant_noise(p, Regime.SUM_OPTIMAL, 1, p.T - 1)
    sinr = (p.rho * p.J / p.B) / (1.0 + q.value / (p.B * p.sigma2))
    assert rel(sinr, expect_first) < 1e-12


# ------------------------------------------------------------------- properties


_SCHEME_REGIME = [(s, r) for s in Scheme for r in Regime]


@given(
    pair=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    combo=st.sampled_from(_SCHEME_REGIME),
    j_mult=st.floats(1.0, 30.0),
    T=st.integers(1, 5),
)
@settings(max_examples=300, deadline=None)
def test_se_strictly_increases_with_snr(pair, combo, j_mult, T):
    lo, hi = sorted(pair)
    if hi - lo < 1e-9 * hi:
        return
    scheme, regime = combo
    p_lo = SchemeParams(rho=lo, T=T, J=T * j_mult, eta=0.7, c_buf=1.5)
    p_hi = SchemeParams(rho=hi, T=T, J=T * j_mult, eta=0.7, c_buf=1.5)
    assert evaluate(scheme, regime, p_lo).se < evaluate(scheme, regime, p_hi).se


@given(
    rho=st.floats(1e-3, 1e3),
    J=st.floats(1.0, 1e4),
    sigma2=st.floats(0.1, 10.0),
    cb=st.floats(0.05, 50.0),
    regime=st.sampled_from(list(Regime)),
)
@settings(max_examples=300, deadline=None)
def test_single_slot_schemes_coincide_bitwise(rho, J, sigma2, cb, regime):
    # at T = 1 (and B = 1) the three uplink variants are the same channel, and
    # the implementations are shaped so the floats agree exactly, not just closely
    p = SchemeParams(rho=rho, T=1, J=J, sigma2=sigma2, c_buf=cb)
    m_classical = evaluate(Scheme.CLASSICAL, regime, p)
    assert m_classical == evaluate(Scheme.CC_OMA, regime, p)
    assert m_classical == evaluate(Scheme.IR_OMA, regime, p)


@given(
    rho=st.floats(1e-2, 1e6),
    j_mult=st.floats(1.05, 30.0),
    T=st.integers(1, 5),
    eta=st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_tin_spectral_efficiency_saturates(rho, j_mult, T, eta):
    J = T * j_mult + 0.5
    p = SchemeParams(rho=rho, T=T, J=J, eta=eta)
    bound_noma = (J / (2.0 * T)) * math.log2(1.0 + T * T / (eta * eta * (J - T) ** 2))
    bound_oma = (J / (2.0 * T)) * math.log2(1.0 + T * T / (J - T))
    assert evaluate(Scheme.CC_NOMA, Regime.TIN, p).se <= bound_noma * (1.0 + 1e-12)
    assert evaluate(Scheme.CC_OMA, Regime.TIN, p).se <= bound_oma * (1.0 + 1e-12)


@given(rho=st.floats(1e-2, 1e2), T=st.integers(2, 4), j_mult=st.floats(1.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_ir_with_unbounded_buffer_matches_classical_tin(rho, T, j_mult):
    # per-slot SINRs agree exactly once the refinement noise underflows to 0;
    # the T-slot aggregation can differ by an ulp, hence the float-level bound
    p = SchemeParams(rho=rho, T=T, J=T * j_mult, c_buf=1e4)
    a, b = evaluate(Scheme.IR_OMA, Regime.TIN, p), evaluate(Scheme.CLASSICAL, Regime.TIN, p)
    assert rel(a.se, b.se) < 1e-13
    assert rel(a.ebn0_linear, b.ebn0_linear) < 1e-13


def _closed_form_written_out(scheme: Scheme, regime: Regime, p: SchemeParams):
    """(se, ebn0) of each scheme/regime pair, every expression in full.

    The operand order is the one the published floats were computed with, so
    the evaluator must agree to the last bit, not just closely.  IR-OMA sums
    its slots one by one, asking for each slot's refinement noise.
    """
    if scheme is Scheme.IR_OMA:
        acc = 0.0
        for t in range(1, p.T + 1):
            q = ir_quant_noise(p, regime, t, p.T - 1).value
            if regime is Regime.SUM_OPTIMAL:
                sinr = (p.rho * p.J / p.B) / (1.0 + q / (p.B * p.sigma2))
            else:
                den = p.rho * (p.J / p.T - 1.0) / p.B + 1.0 + q / (p.B * p.sigma2)
                sinr = (p.rho / p.B) / den
            acc += math.log(1.0 + sinr) / LN2
        if regime is Regime.SUM_OPTIMAL:
            return ((p.B / (2.0 * p.T)) * acc,
                    p.J * p.sigma2 * p.rho / ((p.B / p.T) * acc))
        return ((p.J * p.B / (2.0 * p.T * p.T)) * acc,
                p.T * p.sigma2 * p.rho / ((p.B / p.T) * acc))
    if regime is Regime.SUM_OPTIMAL:
        if scheme is Scheme.CLASSICAL:
            bits = math.log(1.0 + p.rho * p.J / p.T) / LN2
            return 0.5 * bits, p.J * p.sigma2 * p.rho * p.T / bits
        if scheme is Scheme.CC_NOMA:
            sinr = p.rho * p.T * (1.0 + p.eta**2 * (p.J / p.T - 1.0) ** 2)
        else:
            sinr = p.rho * p.T * (1.0 + (1.0 / p.T) * (p.J / p.T - 1.0))
        bits = math.log(1.0 + sinr) / LN2
        return 0.5 * bits, p.J * p.sigma2 * p.rho / bits
    if scheme is Scheme.CLASSICAL:
        sinr = p.rho / (p.rho * (p.J / p.T - 1.0) + 1.0)
    elif scheme is Scheme.CC_NOMA:
        sinr = p.rho * p.T**2 / (p.T + p.rho * p.eta**2 * (p.J - p.T) ** 2)
    else:
        sinr = p.rho * p.T / (p.rho * (p.J / p.T - 1.0) + 1.0)
    bits = math.log(1.0 + sinr) / LN2
    return (p.J / (2.0 * p.T)) * bits, p.T * p.sigma2 * p.rho / bits


@given(
    rho=st.floats(1e-12, 1e8),
    T=st.integers(1, 16),
    j_mult=st.floats(1.0, 1e3),
    sigma2=st.floats(1e-6, 1e6),
    eta=st.floats(0.0, 1.0),
    B=st.integers(1, 5),
    c_buf=st.one_of(st.floats(1e-3, 1e3), st.just(math.inf)),
)
@settings(max_examples=300, deadline=None)
def test_evaluate_is_bit_exact_against_the_closed_forms_written_out(
    rho, T, j_mult, sigma2, eta, B, c_buf
):
    p = SchemeParams(
        rho=rho, T=T, J=T * j_mult, sigma2=sigma2, eta=eta, B=B, c_buf=c_buf
    )
    for scheme, regime in _SCHEME_REGIME:
        se, ebn0 = _closed_form_written_out(scheme, regime, p)
        m = evaluate(scheme, regime, p)
        assert (m.se, m.ebn0_linear, m.ebn0_db) == (se, ebn0, 10.0 * math.log10(ebn0)), (
            scheme, regime)


# ---------------------------------------------------- finite-blocklength backoff


def test_fbl_reference_value():
    got = fbl_rate(1.0, 100, 1e-3)
    assert rel(got, 0.31076269158061837) < 1e-9


def test_fbl_approaches_capacity():
    sinr = 1.0
    cap = 0.5 * math.log2(2.0)
    assert rel(fbl_rate(sinr, 10**15, 1e-3), cap) < 1e-6


def test_fbl_zero_sinr_is_zero_rate():
    assert fbl_rate(0.0, 100, 1e-3) == 0.0


def test_fbl_floors_at_zero_for_tiny_blocklengths():
    assert fbl_rate(0.01, 2, 1e-9) == 0.0


@given(
    sinr=st.floats(1e-3, 1e3),
    n=st.integers(10, 10**8),
    eps=st.floats(1e-9, 0.4),
)
@settings(max_examples=200, deadline=None)
def test_fbl_never_exceeds_capacity(sinr, n, eps):
    r = fbl_rate(sinr, n, eps)
    assert 0.0 <= r < 0.5 * math.log2(1.0 + sinr)


def test_qinv_reference_value():
    assert rel(qinv(1e-3), 3.0902323061678136) < 1e-10


def test_qinv_against_scipy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    # the last three sit next to 0.5 and at the smallest subnormal
    for eps in (0.4, 0.1, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12,
                0.4999999, math.nextafter(0.5, 0.0), 5e-324):
        assert rel(qinv(eps), -ndtri(eps)) < 1e-10


def test_qinv_round_trips_through_tail_probability():
    for eps in (0.3, 1e-2, 1e-4, 1e-8):
        x = qinv(eps)
        assert rel(0.5 * math.erfc(x / math.sqrt(2.0)), eps) < 1e-9


# ------------------------------------------------------------- parameter checks


def test_ir_oma_tin_at_the_t_bound_is_quick():
    # IR-OMA adds the T slot rates one by one
    p = SchemeParams(rho=1.0, T=T_MAX, J=float(T_MAX))
    assert p.T == T_MAX
    start = time.perf_counter()
    m = evaluate(Scheme.IR_OMA, Regime.TIN, p)
    assert time.perf_counter() - start < 0.5
    assert math.isfinite(m.se) and math.isfinite(m.ebn0_linear)


def test_infinite_buffer_stays_valid_and_finite():
    # c_buf = inf is the unbounded-buffer limit, not an invalid input
    m = evaluate(Scheme.IR_OMA, Regime.SUM_OPTIMAL, SchemeParams(rho=1.0, T=2, J=4.0, c_buf=float("inf")))
    assert m.se == 1.160964047443681
    assert math.isfinite(m.ebn0_linear)


def test_integer_like_counts_are_coerced():
    # params.check_count: a float holding an integer is that integer
    p = SchemeParams(rho=1.0, T=2.0, J=10.0, B=3.0)
    assert isinstance(p.T, int) and p.T == 2
    assert isinstance(p.B, int) and p.B == 3
    sigs = make_equicorrelated_signatures(64, 5, 0.1)
    assert (make_equicorrelated_signatures(64.0, 5.0, 0.1) == sigs).all()
    est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2.0, [(0.0, 1, 2, 3, 4)] * 2, 0.0, 2000.0, 3.0)
    assert est == simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 2000, 3)
    assert isinstance(est.trials, int) and isinstance(est.seed, int)
    assert analytic_sinr(Scheme.CC_NOMA, 1.0, 2.0, (5.0, 5.0), 0.1) == analytic_sinr(
        Scheme.CC_NOMA, 1.0, 2, (5, 5), 0.1)
    assert make_grid(1.0, 2.0, 5.0) == make_grid(1.0, 2.0, 5)


def test_real_values_pass_the_rules_unchanged():
    # params.check_real coerces nothing: an int rho stays the int that
    # curve_to_json writes into meta, an int buffer beyond float range is an
    # unbounded one, as c_buf = inf is, and numpy scalars and bools are numbers
    p = SchemeParams(rho=1, T=2, J=10.0)
    assert type(p.rho) is int
    curve = se_curve(Scheme.CC_OMA, Regime.TIN, p, (1.0, 2.0))
    assert '"rho": 1,' in curve_to_json(curve, "0")
    huge = SchemeParams(rho=1.0, T=2, J=4.0, c_buf=10**400)
    assert huge.c_buf == 10**400
    assert evaluate(Scheme.IR_OMA, Regime.SUM_OPTIMAL, huge) == evaluate(
        Scheme.IR_OMA, Regime.SUM_OPTIMAL, SchemeParams(rho=1.0, T=2, J=4.0, c_buf=math.inf))
    q = SchemeParams(rho=np.float32(2.0), J=np.int64(3), eta=True)
    assert type(q.rho) is np.float32 and type(q.J) is np.int64 and q.eta is True
    # and check_count takes a seed of any size, as SeedSequence does
    sigs = make_equicorrelated_signatures(64, 5, 0.1)
    est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 300, 10**400)
    assert est.seed == 10**400 and math.isfinite(est.mean)
    # a grid bound is any real in float range: an int beyond int64 raised numpy's TypeError
    assert make_grid(1, 10**300, 3) == make_grid(1.0, 1e300, 3)
    # params.check_reals takes a grid as any iterable of reals: numpy's bool and
    # the standard library's exact types included
    grid = (0.5, 1.0, 2.0)
    curves = [se_curve(Scheme.CC_OMA, Regime.TIN, p, g)
              for g in (grid, list(grid), np.array(grid), (x for x in grid))]
    assert all(c == curves[0] for c in curves) and curves[0].grid == grid
    exact = se_curve(Scheme.CC_OMA, Regime.TIN, p, (Fraction(1, 2), np.bool_(True), Decimal(2)))
    assert exact == curves[0]


@pytest.mark.parametrize("value", [-1.0, -0.0, 0, 5e-324, 1.0, 2, 3.5, 1e308, math.inf,
                                   -math.inf, math.nan])
def test_sweep_masks_agree_with_the_rules(value):
    # a sweep skips, by its numpy mask, exactly the values SchemeParams refuses
    for field, mask in [("rho", rho_in_range), ("J", lambda J: J_in_range(J, 2))]:
        try:
            SchemeParams(**{"T": 2, "J": 2.0, field: value})
            accepted = True
        except ValueError:
            accepted = False
        assert mask(value) == accepted
        assert mask(np.array([value])).tolist() == [accepted]
