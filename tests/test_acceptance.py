"""Acceptance gate: ten go/no-go checks, one [PASS]/[FAIL] line each.

Run under pytest, or standalone for the full ten-line report:

    python3 tests/test_acceptance.py

Criterion 3 checks the non-orthogonal sum decoder at vanishing SNR with the
total power P_tot = J*sigma2*rho held fixed.  Its sum SINR is measured against
the link-level simulator on the path (J = 16, 32, 64), and further down the
path (rho = 1e-6 .. 2.5e-7) its SNR per bit must fall inside the sum-capacity
bracket of the simulated combiner output.  Both show the SNR per bit falling
toward zero, not converging to the value ln2*P_tot that ebn0_rho_zero_limit
states for this path.
"""

import io
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rederive_expected import EXPECTED  # independent mpmath re-derivation

from harqscale import (
    Metrics,
    Regime,
    Scheme,
    SchemeParams,
    analytic_sinr,
    buffer_rate_from_quant_noise,
    evaluate,
    fbl_rate,
    find_crossing,
    ir_quant_noise,
    make_equicorrelated_signatures,
    make_grid,
    se_curve,
    simulate_cc_noma_sinr,
)
from harqscale.cli import main as cli_main

LN2 = math.log(2.0)
SIG6 = 5e-7  # relative tolerance for 6-significant-figure agreement


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")


# --------------------------------------------------------------------------- 1


def test_criterion_01_formula_spot_checks():
    p_cc = SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0)
    p_ir_sum = SchemeParams(rho=1.0, T=2, J=10.0, c_buf=2.0)
    p_ir_tin = SchemeParams(rho=1.0, T=2, J=10.0, c_buf=0.1)
    metrics = {
        "classical_sum": evaluate(Scheme.CLASSICAL, Regime.SUM_OPTIMAL, p_cc),
        "classical_tin": evaluate(Scheme.CLASSICAL, Regime.TIN, p_cc),
        "cc_noma_sum": evaluate(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, p_cc),
        "cc_noma_tin": evaluate(Scheme.CC_NOMA, Regime.TIN, p_cc),
        "cc_oma_sum": evaluate(Scheme.CC_OMA, Regime.SUM_OPTIMAL, p_cc),
        "cc_oma_tin": evaluate(Scheme.CC_OMA, Regime.TIN, p_cc),
        "ir_oma_sum": evaluate(Scheme.IR_OMA, Regime.SUM_OPTIMAL, p_ir_sum),
        "ir_oma_tin": evaluate(Scheme.IR_OMA, Regime.TIN, p_ir_tin),
    }
    worst = 0.0
    for key, m in metrics.items():
        worst = max(worst, rel(m.se, EXPECTED[key + "_se"]))
        worst = max(worst, rel(m.ebn0_linear, EXPECTED[key + "_ebn0"]))
    worst = max(worst, rel(fbl_rate(1.0, 100, 1e-3), EXPECTED["fbl_sinr1_n100_eps1e3"]))
    ok = worst < SIG6
    _report(1, ok, f"nine derived values match the re-derivation script "
                   f"(worst rel err {worst:.2e} < {SIG6:.0e})")
    assert ok


# --------------------------------------------------------------------------- 2


def test_criterion_02_tin_floors():
    worst_db = 0.0
    for sigma2 in (0.5, 1.0, 2.0):
        target_db = -1.59 + 10.0 * math.log10(sigma2)
        p = SchemeParams(rho=1e-6, T=2, J=10.0, eta=1.0, sigma2=sigma2)
        for scheme in (Scheme.CC_NOMA, Scheme.CC_OMA):
            got_db = evaluate(scheme, Regime.TIN, p).ebn0_db
            worst_db = max(worst_db, abs(got_db - target_db))
    ok = worst_db < 0.05
    _report(2, ok, f"TIN floors sit at -1.59 dB + 10log10(sigma2) "
                   f"(worst offset {worst_db:.4f} dB < 0.05 dB)")
    assert ok


# --------------------------------------------------------------------------- 3


# Fixed-total-power path of criterion 3: P_tot = J*sigma2*rho held fixed while
# rho halves.  At the combiner output of the simulated receiver the desired
# user has power S = (T*a2)^2, the coherent interference I = (eta*(J-T)*a2)^2
# and the noise N = T*sigma2*a2, with a2 = rho*sigma2.  A sum decoder decodes
# the desired user with the interference as noise, then the interference, so
# its SINR is S/(I+N) + I/N + S/(I+N) * I/N = (S+I)/N.
# eta = 1, the value the criterion is stated at, makes every user share one
# unit signature.
FP_ETA, FP_T, FP_SIGMA2 = 1.0, 2, 1.0


@lru_cache(maxsize=None)
def _simulated_sum_sinr(p_tot: float, J: int) -> tuple[float, float]:
    """(S+I)/N and I/N at J users on the fixed-P_tot path, by simulation.

    The simulator measures S/(I+N) with every user active and S/N with the
    desired user alone.  The eta = 1 signatures are built directly, since the
    equi-correlated constructor stops below 1.
    """
    T, sigma2 = FP_T, FP_SIGMA2
    rho = p_tot / (sigma2 * J)
    per_slot = J // T
    sigs = np.ones((per_slot, 1), dtype=complex)
    tin = simulate_cc_noma_sinr(sigs, rho, sigma2, T, [range(per_slot)] * T,
                                0, 4000, seed=1).mean
    snr = simulate_cc_noma_sinr(sigs, rho, sigma2, T, [[0]] * T, 0, 4000, seed=1).mean
    return snr + snr / tin - 1.0, snr / tin - 1.0


def _fixed_power_check(evaluator) -> tuple[bool, str]:
    """Criterion 3 for a CC-NOMA evaluator (eta = 1, T = 2, sigma2 = 1).

    (a) Oracle, J = 16, 32, 64: the closed-form sum SINR matches the
        simulated (S+I)/N within the 5% oracle bound of criterion 6, the
        simulated I/N matches the geometry above within 5%, and the
        simulated SNR per bit falls at each halving of rho.
    (b) rho = 1e-6, 5e-7, 2.5e-7 (J up to 4e7, beyond simulation): the sum
        SINR lies between max(S, I)/N (one stream alone) and
        (sqrt(S) + sqrt(I))^2/N (all non-noise power coherent), so the SNR
        per bit P_tot/log2(1 + SINR) must lie inside the matching bracket,
        which is within 1% wide at rho = 1e-6 and narrows at each halving,
        and must fall at each halving.
    """
    eta, T, sigma2 = FP_ETA, FP_T, FP_SIGMA2
    ok = True
    oracle_worst = 0.0
    detail = []
    for p_tot in (1.0, 10.0):
        simulated = []
        for J in (16, 32, 64):
            rho = p_tot / (sigma2 * J)
            sum_sinr, inr = _simulated_sum_sinr(p_tot, J)
            p = SchemeParams(rho=rho, T=T, J=float(J), eta=eta, sigma2=sigma2)
            closed = 2.0 ** (2.0 * evaluator(p, Regime.SUM_OPTIMAL).se) - 1.0
            inr_geometry = rho * eta**2 * (J - T) ** 2 / (T * sigma2)
            oracle_worst = max(oracle_worst, rel(closed, sum_sinr),
                               rel(inr, inr_geometry))
            simulated.append(p_tot / math.log2(1.0 + sum_sinr))
        ok = ok and simulated[0] > simulated[1] > simulated[2]

        ebn0s, widths = [], []
        for rho in (1e-6, 5e-7, 2.5e-7):
            J = p_tot / (sigma2 * rho)
            a2 = rho * sigma2
            S, I, N = (T * a2) ** 2, (eta * (J - T) * a2) ** 2, T * sigma2 * a2
            lo = p_tot / math.log2(1.0 + (math.sqrt(S) + math.sqrt(I)) ** 2 / N)
            hi = p_tot / math.log2(1.0 + max(S, I) / N)
            p = SchemeParams(rho=rho, T=T, J=J, eta=eta, sigma2=sigma2)
            ebn0 = evaluator(p, Regime.SUM_OPTIMAL).ebn0_linear
            ok = ok and lo < ebn0 < hi
            ebn0s.append(ebn0)
            widths.append((hi - lo) / hi)
        ok = ok and ebn0s[0] > ebn0s[1] > ebn0s[2]
        ok = ok and widths[0] < 0.01 and widths[0] > widths[1] > widths[2]
        detail.append(f"P_tot={p_tot:g}: simulated Eb/N0 {simulated[0]:.3g}, "
                      f"{simulated[1]:.3g}, {simulated[2]:.3g} at J=16, 32, 64; "
                      f"Eb/N0 {ebn0s[0]:.4g}, {ebn0s[1]:.4g}, {ebn0s[2]:.4g} at "
                      f"rho=1e-6, 5e-7, 2.5e-7 in brackets {widths[0]:.1e}, "
                      f"{widths[1]:.1e}, {widths[2]:.1e} wide")
    ok = ok and oracle_worst < 0.05
    detail.append(f"oracle worst rel err {oracle_worst:.1%} < 5%")
    return ok, "; ".join(detail)


def test_criterion_03_fixed_total_power_limit():
    ok, detail = _fixed_power_check(lambda p, r: evaluate(Scheme.CC_NOMA, r, p))
    _report(3, ok, "fixed-power, vanishing-SNR sum decoder -- " + detail)
    assert ok, (
        "along J = P_tot/(sigma2*rho) the sum-decoder SINR must match the "
        "simulated (S+I)/N, and its SNR per bit must fall at each halving of "
        "rho inside the sum-capacity bracket of the combiner output -- " + detail
    )


def test_fixed_power_check_rejects_wrong_sum_laws():
    # Two altered sum-optimal evaluators the check must refuse: interference
    # linear rather than quadratic in J/T, and an SNR per bit pinned at
    # ln2*P_tot (log2(1 + SINR) = log2(e) on the whole path).
    def altered(sinr_of):
        def evaluator(p, regime):
            bits = math.log2(1.0 + sinr_of(p))
            ebn0 = p.J * p.sigma2 * p.rho / bits
            return Metrics(0.5 * bits, ebn0, 10.0 * math.log10(ebn0))
        return evaluator

    linear = altered(lambda p: p.rho * p.T * (1.0 + p.eta**2 * (p.J / p.T - 1.0)))
    pinned = altered(lambda p: math.e - 1.0)
    assert not _fixed_power_check(linear)[0]
    assert not _fixed_power_check(pinned)[0]


# --------------------------------------------------------------------------- 4


def test_criterion_04_ir_buffer_limits():
    worst = 0.0
    for T in (2, 3):
        p = SchemeParams(rho=1.0, T=T, J=10.0, c_buf=1e4)
        tin_ir = evaluate(Scheme.IR_OMA, Regime.TIN, p).ebn0_linear
        tin_cl = evaluate(Scheme.CLASSICAL, Regime.TIN, p).ebn0_linear
        worst = max(worst, rel(tin_ir, tin_cl))
        sum_ir = evaluate(Scheme.IR_OMA, Regime.SUM_OPTIMAL, p).ebn0_linear
        single = p.J * p.sigma2 * p.rho / math.log2(1.0 + p.rho * p.J)
        worst = max(worst, rel(sum_ir, single))
    ok = worst < 1e-6
    _report(4, ok, f"huge-buffer IR matches the no-quantization forms "
                   f"(worst rel err {worst:.2e} < 1e-6)")
    assert ok


# --------------------------------------------------------------------------- 5


def test_criterion_05_buffer_round_trip():
    worst = 0.0
    for horizon in (2, 3):
        for rho in (0.1, 0.5, 1.0, 2.0, 10.0):
            for c_buf in (0.5, 1.0, 2.0, 5.0, 10.0):
                p = SchemeParams(rho=rho, T=3, J=10.0, c_buf=c_buf)
                q = ir_quant_noise(p, Regime.SUM_OPTIMAL, 1, horizon)
                rate = buffer_rate_from_quant_noise(p, q.value)
                worst = max(worst, rel(rate, c_buf / horizon))
    ok = worst < 1e-12
    _report(5, ok, f"quantization noise to buffer rate round-trip over the "
                   f"5x5 (rho, c_buf) grid (worst rel err {worst:.2e} < 1e-12)")
    assert ok


# --------------------------------------------------------------------------- 6


def test_criterion_06_monte_carlo_oracle():
    worst = 0.0
    for eta in (0.0, 0.05, 0.1, 0.3):
        for T in (1, 2, 4):
            for j_t in (2, 5, 10):
                sigs = make_equicorrelated_signatures(64, j_t, eta)
                est = simulate_cc_noma_sinr(
                    sigs, 1.0, 1.0, T, [range(j_t)] * T, 0, 2000, seed=1)
                ana = analytic_sinr(Scheme.CC_NOMA, 1.0, T, [j_t] * T, eta)
                worst = max(worst, rel(est.mean, ana))
    ok = worst < 0.05
    _report(6, ok, f"simulated SINR matches the closed form on the 36-cell "
                   f"grid (worst rel err {worst:.1%} < 5%)")
    assert ok


# --------------------------------------------------------------------------- 7


def test_criterion_07_single_slot_coincidence():
    grid = make_grid(1e-3, 1e2, 20)
    ok = True
    for rho in grid:
        p = SchemeParams(rho=rho, T=1, J=10.0, c_buf=10.0)
        for regime in Regime:
            m = evaluate(Scheme.CLASSICAL, regime, p)
            ok = ok and m == evaluate(Scheme.CC_OMA, regime, p)
            ok = ok and m == evaluate(Scheme.IR_OMA, regime, p)
    _report(7, ok, "classical, orthogonal chase, and incremental-redundancy "
                   "evaluators coincide exactly at T=1 on a 20-point rho grid")
    assert ok


# --------------------------------------------------------------------------- 8


def test_criterion_08_trend_suite():
    def se_of(scheme, regime, T):
        p = SchemeParams(rho=1.0, T=T, J=10.0, eta=1.0, c_buf=10.0 * T)
        return evaluate(scheme, regime, p).se

    sum_noma = [se_of(Scheme.CC_NOMA, Regime.SUM_OPTIMAL, T) for T in (1, 2, 3)]
    tin_noma = [se_of(Scheme.CC_NOMA, Regime.TIN, T) for T in (1, 2, 3)]
    tin_oma = [se_of(Scheme.CC_OMA, Regime.TIN, T) for T in (1, 2, 3)]
    ok = sum_noma[0] > sum_noma[1] > sum_noma[2]
    ok = ok and tin_noma[0] < tin_noma[1] < tin_noma[2]
    ok = ok and tin_oma[0] < tin_oma[1] < tin_oma[2]

    grid = make_grid(1e-3, 1e2, 120)
    p = SchemeParams(rho=1.0, T=2, J=10.0)
    crossing = find_crossing(
        se_curve(Scheme.CC_OMA, Regime.SUM_OPTIMAL, p, grid),
        se_curve(Scheme.CC_OMA, Regime.TIN, p, grid),
    )
    ok = ok and crossing is not None
    _report(8, ok, "retransmission trends hold and the orthogonal sum/TIN "
                   f"curves cross (at {crossing:.2f} dB)" if crossing is not None
                   else "retransmission trends hold but no sum/TIN crossing found")
    assert ok


# --------------------------------------------------------------------------- 9


def test_criterion_09_fbl_sanity():
    ok = True
    worst_gap = 0.0
    for sinr in (0.01, 0.1, 1.0):
        cap = 0.5 * math.log2(1.0 + sinr)
        for n in (100, 10_000, 100_000_000):
            for eps in (1e-3, 1e-5):
                r = fbl_rate(sinr, n, eps)
                ok = ok and r < cap
                if n == 100_000_000:
                    worst_gap = max(worst_gap, abs(r - cap))
    ok = ok and worst_gap < 1e-3
    _report(9, ok, f"finite-blocklength rate stays below capacity and closes "
                   f"to within {worst_gap:.2e} < 1e-3 at n=1e8")
    assert ok


# -------------------------------------------------------------------------- 10


def test_criterion_10_cli_determinism():
    curve_args = ["curve", "--scheme", "cc-noma", "--regime", "sum", "--rho", "1",
                  "--T", "2", "--J", "10", "--eta", "1", "--grid-min", "0.001",
                  "--grid-max", "100", "--grid-points", "60"]
    validate_args = ["validate", "--eta", "0.1", "--T", "2", "--users-per-slot",
                     "5", "--rho", "1", "--trials", "2000", "--seed", "7"]

    def run_validate(workers: int) -> bytes:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main([*validate_args, "--workers", str(workers)])
        assert rc == 0
        return buf.getvalue().encode()

    with tempfile.TemporaryDirectory() as tmp:
        blobs = []
        for i in range(3):
            path = os.path.join(tmp, f"c{i}.csv")
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main([*curve_args, "--output", path])
            assert rc == 0
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    curves_ok = blobs[0] == blobs[1] == blobs[2]

    v = [run_validate(1), run_validate(1), run_validate(4)]
    validate_ok = v[0] == v[1] == v[2]

    ok = curves_ok and validate_ok
    _report(10, ok, "curve outputs are byte-identical across repeat runs, and "
                    "validate outputs across repeat runs and worker counts {1, 4}")
    assert ok


# ----------------------------------------------------------------- standalone


def _run_all() -> int:
    crits = [
        test_criterion_01_formula_spot_checks,
        test_criterion_02_tin_floors,
        test_criterion_03_fixed_total_power_limit,
        test_criterion_04_ir_buffer_limits,
        test_criterion_05_buffer_round_trip,
        test_criterion_06_monte_carlo_oracle,
        test_criterion_07_single_slot_coincidence,
        test_criterion_08_trend_suite,
        test_criterion_09_fbl_sanity,
        test_criterion_10_cli_determinism,
    ]
    failures = 0
    for fn in crits:
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"{len(crits) - failures}/{len(crits)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_run_all())
