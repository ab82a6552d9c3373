"""The library's refusals, stated once.  Each is a row of ``REFUSED``: a
zero-argument call, the error class it raises and a needle, a regular expression
its message matches, that names the bad argument.  One test states the contract:
the call raises that class, a ``HarqScaleError`` or ``ValueError`` (exit 2 from the
CLI), with the needle in its message.  Warnings are errors here, so a row whose
call warns before it refuses fails."""

import math
from functools import partial

import numpy as np
import pytest

from harqscale import (
    Curve, DegenerateRate, DegenerateResidual, DesiredInactive, DimensionTooSmall, EmptyCurve,
    GridMismatch, HarqScaleError, Hold, InvalidSlot, Regime, Scheme, SchemeParams,
    UnsupportedCombination, analytic_sinr, buffer_rate_from_quant_noise,
    density_curve, ebn0_cbuf_infinity_ir_tin, ebn0_floor, ebn0_rho_zero_limit, evaluate, fbl_rate,
    find_crossing, ir_quant_noise, make_equicorrelated_signatures, make_grid, min_ebn0, qinv,
    se_curve, simulate_cc_noma_sinr, verify_cc_oma_noise_expansion,
)
from harqscale.closedform import combined_sinr, rate_function
from harqscale.params import T_MAX

NAN, INF = math.nan, math.inf
CLASSICAL, CC_NOMA, CC_OMA, IR_OMA = Scheme
(SUM, TIN), (TOTAL, USERS) = Regime, Hold
P = SchemeParams(rho=1.0, T=2, J=10.0)
P0 = SchemeParams(rho=0.0, T=2, J=10.0)
SIGS = make_equicorrelated_signatures(64, 5, 0.1)


def _refused(row_id, error, needle, fn, *args, **kwargs):
    return pytest.param(partial(fn, *args, **kwargs), error, needle, id=row_id)


def _sinr(rho=1.0, sigma2=1.0, T=2, active=None, trials=300, workers=1, desired=0, seed=0):
    # 5 users of SIGS in every slot, user 0 decoded, seed 0
    active = [range(5)] * T if active is None else active
    return partial(simulate_cc_noma_sinr, SIGS, rho, sigma2, T, active, desired, trials, seed,
                   workers)


def _analytic(scheme=CC_NOMA, rho=1.0, T=2, counts=(5, 5), eta=0.1):
    return partial(analytic_sinr, scheme, rho, T, counts, eta)


def _expansion(amplitude=1.0, counts=(5, 5), sigma2=1.0, trials=100, seed=0):
    return partial(verify_cc_oma_noise_expansion, amplitude, counts, sigma2, trials, seed)



def _fbl(**kwargs):
    return partial(fbl_rate, **{"sinr": 1.0, "n": 100, "epsilon": 1e-3, **kwargs})


# every real argument outside SchemeParams: (row id, name, the call at a given value)
REAL_ARGUMENTS = [
    ("sinr-rho", "rho", lambda v: _sinr(rho=v)),
    ("sinr-sigma2", "sigma2", lambda v: _sinr(sigma2=v)),
    ("analytic-rho", "rho", lambda v: _analytic(rho=v)),
    ("analytic-eta", "eta", lambda v: _analytic(eta=v)),
    ("signatures-eta", "eta", lambda v: partial(make_equicorrelated_signatures, 11, 10, v)),
    ("expansion-sigma2", "sigma2", lambda v: _expansion(sigma2=v)),
    ("buffer-rate-sigma_q2", "sigma_q2", lambda v: partial(buffer_rate_from_quant_noise, P, v)),
    ("qinv-epsilon", "epsilon", lambda v: partial(qinv, v)),
    *((f"fbl-{name}", name, lambda v, name=name: _fbl(**{name: v}))
      for name in ("sinr", "n", "epsilon")),
    ("grid-min", "grid bounds", lambda v: partial(make_grid, v, 2.0, 5)),
    ("grid-max", "grid bounds", lambda v: partial(make_grid, 1.0, v, 5)),
]

REFUSED = [
    # each field's message starts with its name
    *(_refused(f"params-{name}-{value}", ValueError, f"^{name} ", SchemeParams, **{name: value})
      for name, values in [("rho", (-1.0, NAN, INF)), ("T", (0, INF, NAN, 2.5)),
                           ("J", (0.5, INF)), ("eta", (-0.1, 1.5)), ("sigma2", (0.0, INF)),
                           ("B", (0, INF)), ("c_buf", (0.0,)), ("L", (0.0, INF))]
      for value in values),
    *(_refused(f"params-{name}-beyond-float", ValueError,
               f"^{name} is too large for float arithmetic$", SchemeParams, **{name: 10**400})
      for name in ("rho", "T", "J", "sigma2", "B", "L")),
    _refused("params-J-below-T", ValueError, r"^J .* >= T \(2\)", SchemeParams, T=2, J=1.0),
    _refused("params-T-above-T_MAX", ValueError, r"^T must be in 1\.\.10000, got 10001$",
             SchemeParams, T=T_MAX + 1, J=float(T_MAX + 1)),
    # rho = 0 makes the SNR per bit 0/0 for every scheme and regime
    *(_refused(f"evaluate-{s.value}-{r.value}", DegenerateRate, "^rho = 0 ", evaluate, s, r, P0)
      for s in Scheme for r in Regime),
    # IR-OMA's slots see different noise, so no single combined SINR exists
    *(_refused(f"combined-sinr-ir-oma-{r.value}", UnsupportedCombination, "for ir-oma$",
               combined_sinr, IR_OMA, r, 1.0, 2, 10.0, 0.1)
      for r in Regime),
    *(_refused(f"quant-noise-t-{t}", InvalidSlot, f"^slot t={t} ", ir_quant_noise, P, SUM, t, 1)
      for t in (0, 3)),
    _refused("quant-noise-t-1.5", ValueError, "^t must be an integer, got 1.5$", ir_quant_noise, P,
             SUM, 1.5, 1),
    *(_refused(f"quant-noise-horizon-{h}", ValueError, "^horizon ", ir_quant_noise, P, SUM, 1, h)
      for h in (0, 3)),
    # 2**(2 c_buf / (h B)) rounds to 1, so the noise power would be x / 0
    *(_refused(f"quant-noise-vanishing-buffer-{r.value}-h{h}", DegenerateRate, "c_buf = 1e-300",
               ir_quant_noise, SchemeParams(rho=1.0, T=2, J=10.0, c_buf=1e-300), r, 1, h)
      for r in Regime for h in (1, 2)),
    # a noise power of 0 would divide by 0, and one below 0 take the log of a
    # negative number
    *(_refused(f"buffer-rate-{q}", ValueError, "^sigma_q2 ", buffer_rate_from_quant_noise, P, q)
      for q in (0.0, -1.0, NAN)),
    *(_refused(f"fbl-{name}-{args}", ValueError, f"^{name} must", fbl_rate, *args)
      for name, args in [("sinr", (-0.5, 100, 1e-3)), ("sinr", (NAN, 100, 1e-3)),
                         ("n", (1.0, 0, 1e-3)), ("n", (1.0, NAN, 1e-3)),
                         *(("epsilon", (1.0, 100, eps)) for eps in (0.0, 0.5, 1.0))]),
    # log2(1 + inf) / 2 was returned as a rate
    _refused("fbl-sinr-inf", ValueError, "^sinr must be finite and >= 0, got inf$", fbl_rate, INF,
             100, 1e-3),
    *(_refused(f"floor-{s.value}-{r.value}", UnsupportedCombination,
               f"floor for {s.value}/{r.value};", ebn0_floor, s, r, P)
      for s, r in [(CLASSICAL, SUM), (CLASSICAL, TIN), (CC_OMA, SUM), (IR_OMA, SUM),
                   (IR_OMA, TIN)]),
    *(_refused(f"rho-zero-{s.value}-{r.value}-{hold.value}", UnsupportedCombination,
               f"limit for {s.value}/{r.value} holding {hold.value} fixed$",
               ebn0_rho_zero_limit, s, r, P, hold)
      for s, r, hold in [(CLASSICAL, TIN, TOTAL),  # needs T == 1
                         (CLASSICAL, SUM, TOTAL), (CC_NOMA, SUM, USERS), (CC_NOMA, TIN, TOTAL),
                         (CC_OMA, TIN, TOTAL), (IR_OMA, SUM, TOTAL)]),
    _refused("cbuf-infinity-rho-0", DegenerateRate, "^rho = 0 ", ebn0_cbuf_infinity_ir_tin, P0),
    # m = J + 1 dimensions are the fewest that host J equi-correlated signatures
    *(_refused(f"signatures-m-{m}", DimensionTooSmall, rf"^m={m} < J\+1=11 ",
               make_equicorrelated_signatures, m, 10, 0.1)
      for m in (2, 10)),
    *(_refused(f"signatures-eta-{eta}", ValueError, r"^eta must be in \[0, 1\)",
               make_equicorrelated_signatures, 11, 10, eta)
      for eta in (-0.1, 1.0, 1.5)),
    # params.check_count, the rule for every count, index and seed: an integer,
    # or a float holding one, within its bounds; each row below got numpy's
    # unnamed TypeError or ValueError, an IndexError, or ran on a truncated value
    *(_refused(f"signatures-{name}-{m}x{J}", ValueError, f"^{name} must be {rule}",
               make_equicorrelated_signatures, m, J, 0.1)
      for name, m, J, rule in [("m", 11.5, 10, "an integer, got 11.5"),
                               ("m", 0, -1, ">= 1, got 0"),
                               ("J", 11, 2.5, "an integer, got 2.5"),
                               ("J", 11, -1, ">= 1, got -1")]),
    # int(1.9) decoded user 1
    _refused("sinr-active-1.9", ValueError,
             "^active_per_slot index must be an integer, got 1.9$", _sinr(T=1, active=[(0, 1.9)])),
    *(_refused(f"sinr-{name}-{value}", ValueError, f"^{name} must be {rule}",
               _sinr(T=1, **{name: value}))
      for name, value, rule in [("trials", 2.5, "an integer, got 2.5"),
                                # ran on one chunk; a TypeError on more
                                ("workers", 1.5, "an integer, got 1.5"),
                                ("seed", -1, ">= 0, got -1"), ("seed", 1.5, "an integer, got 1.5"),
                                ("desired", 1.5, "an integer, got 1.5"),
                                ("desired", -1, ">= 0, got -1")]),
    _refused("sinr-T-2.5", ValueError, "^T must be an integer, got 2.5$",
             _sinr(T=2.5, active=[range(5)] * 2)),
    # int(2.5) gave the (2, 2) SINR, 1.9607843137254901
    _refused("analytic-counts-2.5", ValueError, "^per_slot_counts must be an integer, got 2.5$",
             _analytic(counts=(2.5, 2.5))),
    _refused("analytic-T-2.5", ValueError, "^T must be an integer, got 2.5$", _analytic(T=2.5)),
    # int(2.7) checked (2, 2)
    _refused("expansion-counts-2.7", ValueError, "^per_slot_counts must be an integer, got 2.7$",
             _expansion(counts=(2.7, 2.7))),
    *(_refused(f"expansion-{name}-{value}", ValueError, f"^{name} must be {rule}",
               _expansion(**{name: value}))
      for name, value, rule in [("trials", 2.5, "an integer, got 2.5"),
                                ("seed", -1, ">= 0, got -1"), ("seed", 1.5, "an integer, got 1.5")]),
    # one magnitude, or one per slot: three for two slots did not broadcast
    _refused("expansion-amplitude-length", ValueError,
             "^amplitude_samples has 3 values for 2 slots$", _expansion((1.0, 2.0, 3.0))),
    _refused("grid-points-2.5", ValueError, "^points must be an integer, got 2.5$",
             make_grid, 1.0, 2.0, 2.5),
    # params.check_real, the rule for every real argument: a number with a float
    # value in its domain.  A non-number got a TypeError that named nothing, and
    # an int beyond float range an OverflowError, a DegenerateRate blaming J, or
    # a range message printing 400 digits
    *(_refused(f"params-{name}-{value!r}", ValueError, f"^{name} must be a real number, got ",
               SchemeParams, **{name: value})
      for name, value in [("rho", "1"), ("T", "1"), ("J", "1"), ("eta", "1"), ("sigma2", None),
                          ("B", None), ("c_buf", None), ("L", "1")]),
    _refused("params-eta-beyond-float", ValueError, "^eta is too large for float arithmetic$",
             SchemeParams, eta=10**400),
    *(_refused(f"{row_id}-beyond-float", ValueError, f"^{name} is too large for float arithmetic$",
               call(10**400))
      for row_id, name, call in REAL_ARGUMENTS),
    *(_refused(f"{row_id}-none", ValueError, f"^{name} must be a real number, got None$",
               call(None))
      for row_id, name, call in REAL_ARGUMENTS),
    _refused("fbl-sinr-'x'", ValueError, "^sinr must be a real number, got 'x'$", fbl_rate, "x",
             10, 0.1),
    # a magnitude beyond float range got numpy's OverflowError
    _refused("expansion-amplitude-beyond-float", ValueError,
             "^amplitude_samples must hold floats: int too large", _expansion(10**400)),
    # a grid's values become floats in one pass; the error names the grid
    *(_refused(f"{sweep}-grid-{grid!r:.20}", ValueError, f"^{var} grid must hold floats: ", curve,
               CLASSICAL, SUM, P, grid)
      for sweep, var, curve, grid in [("se", "rho", se_curve, ["a", "b"]),
                                      ("se", "rho", se_curve, [1, 10**400]),
                                      ("density", "J", density_curve, [2, 10**400])]),
    # params.check_reals, the rule for a grid's values and amplitude samples:
    # check_real's type test, made once a type.  float() read each string as a
    # number, and a numpy complex after a ComplexWarning; numpy read the string
    # array as floats and the nested amplitude as a shape
    *(_refused(f"params-rho-{type(value).__name__}", ValueError,
               "^rho must be a real number, got ", SchemeParams, rho=value)
      for value in (np.complex64(1), np.str_("1"), np.bytes_(b"1"))),
    _refused("grid-min-complex64", ValueError, "^grid bounds must be a real number, got ",
             make_grid, np.complex64(1), 2.0, 3),
    *(_refused(f"{row_id}-grid-not-real", ValueError,
               f"^{var} grid must hold floats: .* is not a real number$", curve, CLASSICAL, SUM,
               P, grid)
      for row_id, var, curve, grid in [("se-strings", "rho", se_curve, ["1", "2"]),
                                       ("se-string", "rho", se_curve, "12"),
                                       ("se-string-array", "rho", se_curve, np.array(["1", "2"])),
                                       ("se-complex64", "rho", se_curve, [np.complex64(1), 2.0]),
                                       ("density-strings", "J", density_curve, ["2", "3"])]),
    *(_refused(f"expansion-amplitude-{row_id}", ValueError,
               "^amplitude_samples must hold floats: .* is not a real number$",
               _expansion(amplitude))
      for row_id, amplitude in [("string", "1.0"), ("strings", ["1.0", "2.0"]),
                                ("string-array", np.array(["1", "2"])),
                                ("complex64", np.complex64(1)), ("nested", [[1.0, 2.0]])]),
    _refused("se-grid-empty", EmptyCurve, "^the rho grid is empty$", se_curve, CLASSICAL, SUM, P,
             []),
    # params.check_member: a scheme, regime or hold that is not a member was
    # read as TIN by some branches and as sum-optimal by others, or raised an
    # AttributeError
    *(_refused(f"{row_id}-not-a-member", ValueError, f"^{name} must be a {kind} member, got ",
               call)
      for row_id, name, kind, call in [
          ("rate-function", "regime", "Regime", partial(rate_function, CLASSICAL, "sum", P)),
          ("combined-sinr", "regime", "Regime",
           partial(combined_sinr, CC_NOMA, "sum", 1.0, 2, 10.0, 0.1)),
          ("analytic", "scheme", "Scheme", _analytic("cc-noma")),
          ("quant-noise", "regime", "Regime", partial(ir_quant_noise, P, "sum", 1, 1)),
          ("floor", "scheme", "Scheme", partial(ebn0_floor, "cc-noma", TIN, P)),
          ("rho-zero", "hold", "Hold", partial(ebn0_rho_zero_limit, CC_NOMA, TIN, P, "p_tot"))]),
    *(_refused(f"sinr-active-{bad}", ValueError,
               r"^active_per_slot has indices outside 0\.\.4 in slot 1$", _sinr(T=1, active=[bad]))
      for bad in ((0, 5), (0, -1))),
    _refused("sinr-desired-inactive", DesiredInactive, "^desired user 0 not active in slot 2$",
             _sinr(active=[(0, 1), (1, 2)])),
    _refused("sinr-trials-0", ValueError, "^trials must", _sinr(T=1, trials=0)),
    _refused("sinr-workers-0", ValueError, "^workers must", _sinr(T=1, workers=0)),
    _refused("sinr-slots-not-T", ValueError, "^active_per_slot has 2 slots, expected T=3$",
             _sinr(T=3, active=[range(5)] * 2)),
    # the SchemeParams rules: a negative rho or sigma2 was a math domain error,
    # a non-finite one warned first, and T = 0 left numpy no slot to stack
    *(_refused(f"sinr-{name}-{value}", ValueError, f"^{name} must", _sinr(**{name: value}))
      for name, values in [("rho", (-1.0, INF, NAN)), ("sigma2", (-1.0, 0.0, INF, NAN))]
      for value in values),
    _refused("sinr-T-0", ValueError, r"^T must be in 1\.\.10000, got 0$", _sinr(T=0, active=[])),
    # rho = 0: no signal; 1e-170: the squared signal power underflows to 0;
    # 1e-158: it is subnormal; 1e153: the sum of residual powers overflows;
    # rho*sigma2 = 1e200, inf or 1e308: the squared signal power overflows, so
    # no trial is drawn; the last two: only the residual leaves the range
    *(_refused(f"sinr-power-{rho}x{sigma2}", DegenerateResidual, r"^rho\*sigma2 = ",
               _sinr(rho, sigma2, workers=2))
      for rho, sigma2 in [(0.0, 1.0), (1e-170, 1.0), (1e-158, 1.0), (1e153, 1.0),
                          (1e100, 1e100), (1e200, 1e200), (1e308, 1.0), (1e-200, 1e200),
                          (1e-290, 1e300)]),
    # interference-limited far enough that the filtered noise falls below the
    # last bit of the coherent interference: every trial gives the same
    # residual power, so the run says nothing about the estimate's spread (at
    # 1e70 the variance is exactly 0; at 1e40 and 1e77 it is not, only because
    # the mean of the equal powers rounds)
    *(_refused(f"sinr-constant-residual-{rho}", DegenerateResidual,
               r"^rho\*sigma2 = .*same residual power", _sinr(rho, trials=2000))
      for rho in (1e40, 1e70, 1e77)),
    _refused("analytic-slots-not-T", ValueError, "^per_slot_counts has 2 slots, ", _analytic(T=3)),
    _refused("analytic-empty-slot", ValueError, "^per_slot_counts ", _analytic(counts=(5, 0))),
    *(_refused(f"analytic-{s.value}", UnsupportedCombination, f" for {s.value}$", _analytic(s))
      for s in (CLASSICAL, IR_OMA)),
    # the SchemeParams rules: a negative rho gave a plausible SINR, a non-finite
    # one NaN, eta = 2 a number, and T = 0 a ZeroDivisionError
    *(_refused(f"analytic-{s.value}-rho-{rho}", ValueError, "^rho must be finite and >= 0, got ",
               _analytic(s, rho))
      for s, rho in [(CC_OMA, -1.0), (CC_NOMA, -1.0), (CC_NOMA, NAN), (CC_NOMA, INF)]),
    _refused("analytic-eta-2", ValueError, r"^eta must be in \[0, 1\], got 2", _analytic(eta=2.0)),
    _refused("analytic-T-0", ValueError, "^T must be in .*, got 0$", _analytic(T=0, counts=[])),
    *(_refused(f"expansion-counts-{c}", ValueError, "^per_slot_counts needs ", _expansion(counts=c))
      for c in ((5, 0), ())),
    _refused("expansion-trials-0", ValueError, "^trials must", _expansion(trials=0)),
    *(_refused(f"expansion-sigma2-{v}", ValueError, "^sigma2 must be ", _expansion(sigma2=v))
      for v in (NAN, 0.0, -1.0)),
    *(_refused(f"expansion-amplitude-{v}", ValueError, "^amplitude_samples must ", _expansion(v))
      for v in (NAN, -1.0, INF, (1.0, NAN))),
    # no power (rho = 0); every power rounding to 0 (rho*sigma2 = 1e-320);
    # amplitude**4 overflowing; amplitude**4 rounding to 0 while the noise term
    # does not, so the interference the check exists to test is 0 on both sides
    *(_refused(f"expansion-power-{amplitude}x{sigma2}", DegenerateResidual,
               "^amplitude_samples = .* is not a positive normal float$",
               _expansion(amplitude, sigma2=sigma2))
      for amplitude, sigma2 in [(0.0, 1.0), (math.sqrt(1e-320), 1e-320), (1e100, 1.0),
                                (1e-100, 1.0)]),
    _refused("grid-points-0", ValueError, "^points must", make_grid, 1.0, 2.0, 0),
    _refused("grid-min-above-max", ValueError, "^grid needs min < max", make_grid, 2.0, 1.0, 5),
    _refused("grid-log-from-0", ValueError, "^log grid needs min > 0", make_grid, 0.0, 1.0, 5),
    _refused("grid-scale-cubic", ValueError, "^scale must", make_grid, 1.0, 2.0, 5, "cubic"),
    *(_refused(f"curve-grid-{grid}", ValueError, "^rho grid must be strictly ascending",
               se_curve, CLASSICAL, SUM, P, grid)
      for grid in ((1.0, 0.5), (1.0, 1.0))),
    _refused("curve-every-point-degenerate", EmptyCurve, "^every rho grid point errored",
             se_curve, CLASSICAL, SUM, P, (0.0,)),
    _refused("min-ebn0-no-points", EmptyCurve, "empty curve", min_ebn0,
             Curve(CLASSICAL, TIN, P, "rho", (), (0.0,), 1)),
    _refused("crossing-different-grids", GridMismatch, r"different grids \(2 vs 1 points\)",
             lambda: find_crossing(se_curve(CC_OMA, SUM, P, (1.0, 2.0)),
                                   se_curve(CC_OMA, TIN, P, (1.0,)))),
]


@pytest.mark.parametrize("call, error, needle", REFUSED)
def test_refused_call_raises_a_named_error(call, error, needle):
    assert issubclass(error, (HarqScaleError, ValueError))
    with pytest.raises(error, match=needle):
        call()
