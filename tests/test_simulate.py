"""Link-level Monte-Carlo tests: the signature construction, the SINR kernel
against the received-signal model written out in full, SINR estimates against
the closed forms, determinism, and the amplitude-level noise-expansion check."""

import math
import sys

import numpy as np
import pytest

from harqscale import (
    DegenerateResidual,
    DesiredInactive,
    DimensionTooSmall,
    Regime,
    Scheme,
    SchemeParams,
    UnsupportedCombination,
    analytic_sinr,
    evaluate,
    make_equicorrelated_signatures,
    simulate_cc_noma_sinr,
    verify_cc_oma_noise_expansion,
)

# seed pinned for the oracle-agreement grid: every cell lands within its own
# 95% half-width and within 5% relative error (worst cell 3.5%)
GRID_SEED = 1


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -------------------------------------------------------------- constructions


def test_equicorrelated_inner_products_are_exact():
    sigs = make_equicorrelated_signatures(11, 10, 0.1)
    g = sigs @ sigs.conj().T
    for i in range(10):
        for j in range(10):
            want = 1.0 if i == j else 0.1
            assert abs(g[i, j] - want) < 1e-12


def test_equicorrelated_orthonormal_at_eta_zero():
    sigs = make_equicorrelated_signatures(8, 4, 0.0)
    g = sigs @ sigs.conj().T
    assert np.array_equal(g, np.eye(4, dtype=complex))


def test_equicorrelated_needs_an_extra_dimension():
    with pytest.raises(DimensionTooSmall):
        make_equicorrelated_signatures(2, 10, 0.1)
    with pytest.raises(DimensionTooSmall):
        make_equicorrelated_signatures(10, 10, 0.1)  # m = J is still one short
    make_equicorrelated_signatures(11, 10, 0.1)  # boundary is fine


def test_equicorrelated_eta_domain():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            make_equicorrelated_signatures(11, 10, bad)


# ------------------------------------------- the received-signal model, in full


def explicit_model_sinr(sigs, rho, sigma2, T, active_per_slot, desired, trials, seed):
    """The kernel's estimate, recomputed from the received signal.

    Trial by trial and slot by slot: y_t = a * sum_{j in A_t} s_j + z_t with
    a = sqrt(rho*sigma2) and z_t circular Gaussian of variance sigma2;
    combine the slots weighted by the conjugate amplitude, matched-filter
    with s_desired*, and subtract the desired part T*a^2.  The noise comes
    from the same streams as the kernel's: 256-trial blocks, block k drawn
    from child k of SeedSequence(seed) as (block, T, m, real/imag) normals.
    """
    m = sigs.shape[1]
    a = math.sqrt(rho * sigma2)
    scale = math.sqrt(sigma2 / 2.0)
    s_d = sigs[desired]
    children = np.random.SeedSequence(seed).spawn(-(-trials // 256))
    res_power = []
    for k, child in enumerate(children):
        n = min(256, trials - 256 * k)
        draws = np.random.default_rng(child).standard_normal((n, T, m, 2))
        for i in range(n):
            combined = 0.0 + 0.0j
            for t in range(T):
                z_t = scale * (draws[i, t, :, 0] + 1j * draws[i, t, :, 1])
                y_t = sum(a * sigs[j] for j in active_per_slot[t]) + z_t
                combined += np.conj(a) * (np.conj(s_d) @ y_t)
            res_power.append(abs(combined - T * a * a) ** 2)
    signal = T * rho * sigma2
    return signal * signal / float(np.mean(res_power))


@pytest.mark.parametrize(
    "eta, m, J, rho, sigma2, active, desired, trials",
    [
        (0.0, 8, 5, 0.5, 1.0, [(0, 1, 2)], 0, 257),
        (0.1, 16, 6, 3.0, 0.5, [(0, 1), (0, 2, 3, 4)], 0, 300),
        (0.3, 8, 5, 1.0, 1.0, [(1,), (0, 1, 4), (1, 2)], 1, 1),
        (0.3, 12, 7, 0.2, 4.0, [(2, 3, 4, 5, 6), (2,)], 2, 257),
    ],
)
def test_sinr_kernel_matches_explicit_received_signal_model(
    eta, m, J, rho, sigma2, active, desired, trials
):
    # uneven active sets, runs that cross a 256-trial block boundary, and
    # rho*sigma2 != 1, where a dropped amplitude on the filtered noise shows
    sigs = make_equicorrelated_signatures(m, J, eta)
    T = len(active)
    est = simulate_cc_noma_sinr(sigs, rho, sigma2, T, active, desired, trials, seed=11)
    want = explicit_model_sinr(sigs, rho, sigma2, T, active, desired, trials, seed=11)
    assert rel(est.mean, want) < 1e-12


def test_frame_validates_active_indices():
    sigs = make_equicorrelated_signatures(6, 5, 0.2)
    for bad in ([(0, 5)], [(0, -1)]):
        with pytest.raises(ValueError):
            simulate_cc_noma_sinr(sigs, 1.0, 1.0, 1, bad, 0, 10, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rho, sigma2",
    [(0.0, 1.0), (1e-170, 1.0), (1e-158, 1.0), (1e153, 1.0), (1e100, 1e100),
     (1e-200, 1e200), (1e-290, 1e300)],
)
def test_out_of_range_power_is_a_named_error_without_warnings(rho, sigma2):
    # rho = 0: no signal; 1e-170: the squared powers underflow to 0; 1e-158:
    # they are subnormal; 1e153: the sum of residual powers overflows; 1e200:
    # each residual power overflows; the last two: only the residual leaves
    # the range
    sigs = make_equicorrelated_signatures(64, 5, 0.1)
    with pytest.raises(DegenerateResidual, match=r"rho\*sigma2"):
        simulate_cc_noma_sinr(sigs, rho, sigma2, 2, [range(5)] * 2, 0, 300, 0, 2)


# ------------------------------------------------------------- SINR estimation


def test_sinr_orthogonal_matches_mrc_gain():
    sigs = make_equicorrelated_signatures(64, 5, 0.0)
    est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 2000, GRID_SEED)
    assert rel(est.mean, 2.0) < 0.05  # rho * T with no interference


def test_sinr_reference_cell():
    sigs = make_equicorrelated_signatures(64, 5, 0.1)
    est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 2000, GRID_SEED)
    ana = analytic_sinr(Scheme.CC_NOMA, 1.0, 2, (5, 5), 0.1)
    assert rel(ana, 1.5151515151515151) < 1e-12
    assert rel(est.mean, ana) < 0.05
    assert abs(est.mean - ana) <= est.half_width_95


def test_sinr_single_user_single_slot():
    sigs = make_equicorrelated_signatures(4, 1, 0.0)
    for rho in (1.0, 0.25):
        est = simulate_cc_noma_sinr(sigs, rho, 1.0, 1, [(0,)], 0, 2000, GRID_SEED)
        assert rel(est.mean, rho) < 0.05


def test_sinr_estimate_is_seed_deterministic():
    sigs = make_equicorrelated_signatures(16, 5, 0.1)
    a = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 500, 42)
    b = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 500, 42)
    assert a.mean == b.mean and a.half_width_95 == b.half_width_95
    c = simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 500, 43)
    assert c.mean != a.mean


def test_sinr_estimate_is_worker_count_invariant():
    # streams keyed by block index plus pairwise reduction: the estimate must
    # not depend on how the blocks were split across threads, including runs
    # that end inside, exactly on, or just past a 256-trial block boundary
    # (a short switch interval makes the threads interleave as often as they
    # can, so a race on the shared per-trial array would show)
    sigs = make_equicorrelated_signatures(16, 5, 0.1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trials in (1, 255, 256, 257, 600, 2000):
            runs = [
                simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, trials, 9, workers=w)
                for w in (1, 2, 3, 8)
            ]
            assert len({r.mean for r in runs}) == 1, trials
            assert len({r.half_width_95 for r in runs}) == 1, trials
    finally:
        sys.setswitchinterval(interval)


def test_sinr_half_width_is_calibrated_across_seeds():
    # the spread of the estimate over 60 seeds must match the standard error
    # each run reports; blocks that shared or overlapped random streams would
    # inflate the spread well past the reported error
    sigs = make_equicorrelated_signatures(64, 5, 0.0)
    runs = [
        simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [range(5)] * 2, 0, 2000, seed)
        for seed in range(60)
    ]
    spread = float(np.std([r.mean for r in runs], ddof=1))
    reported = float(np.mean([r.half_width_95 / 1.96 for r in runs]))
    assert 0.65 <= spread / reported <= 1.35


def test_sinr_desired_user_must_transmit_every_slot():
    sigs = make_equicorrelated_signatures(16, 5, 0.1)
    with pytest.raises(DesiredInactive):
        simulate_cc_noma_sinr(sigs, 1.0, 1.0, 2, [(0, 1), (1, 2)], 0, 10, 0)


def test_sinr_slot_count_must_match_T():
    sigs = make_equicorrelated_signatures(16, 5, 0.1)
    with pytest.raises(ValueError):
        simulate_cc_noma_sinr(sigs, 1.0, 1.0, 3, [range(5)] * 2, 0, 10, 0)


def test_sinr_oracle_agreement_spot_cells():
    # a light version of the acceptance grid: one cell per eta regime
    for eta, T, J in [(0.0, 2, 5), (0.05, 4, 10), (0.1, 1, 2), (0.3, 2, 10)]:
        sigs = make_equicorrelated_signatures(64, J, eta)
        est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, T, [range(J)] * T, 0, 2000, GRID_SEED)
        ana = analytic_sinr(Scheme.CC_NOMA, 1.0, T, [J] * T, eta)
        assert rel(est.mean, ana) < 0.05
        assert abs(est.mean - ana) <= est.half_width_95


# ------------------------------------------------------------ analytic formulas


def test_analytic_sinr_reference_values():
    assert rel(analytic_sinr(Scheme.CC_NOMA, 1.0, 2, (5, 5), 0.1), 1.5151515151515151) < 1e-12
    assert analytic_sinr(Scheme.CC_OMA, 1.0, 2, (5, 5)) == 0.4
    # no interferers: both reduce to the MRC gain rho * T
    for T in (1, 2, 4):
        assert rel(analytic_sinr(Scheme.CC_NOMA, 0.7, T, [1] * T, 0.3), 0.7 * T) < 1e-12
        assert rel(analytic_sinr(Scheme.CC_OMA, 0.7, T, [1] * T), 0.7 * T) < 1e-12


def test_analytic_sinr_matches_tin_evaluator_at_uniform_load():
    # the oracle's reference is the TIN chase-combining evaluator's SINR at
    # J_t = J/T per slot, to the last bit (rho = 0.3, T = 3, 4 users per slot
    # tells a restated CC-OMA form apart by rounding)
    for scheme in (Scheme.CC_NOMA, Scheme.CC_OMA):
        for rho, T, users, eta in [(1.0, 2, 5, 0.1), (0.3, 3, 4, 0.2), (2.5, 4, 7, 0.05)]:
            p = SchemeParams(rho=rho, T=T, J=float(T * users), eta=eta)
            sinr = analytic_sinr(scheme, rho, T, [users] * T, eta)
            m = evaluate(scheme, Regime.TIN, p)
            assert m.se == (p.J / (2.0 * p.T)) * (math.log(1.0 + sinr) / math.log(2.0))


def test_analytic_sinr_validation():
    with pytest.raises(ValueError):
        analytic_sinr(Scheme.CC_NOMA, 1.0, 3, (5, 5), 0.1)  # len != T
    with pytest.raises(ValueError):
        analytic_sinr(Scheme.CC_NOMA, 1.0, 2, (5, 0), 0.1)  # empty slot
    with pytest.raises(UnsupportedCombination):
        analytic_sinr(Scheme.CLASSICAL, 1.0, 2, (5, 5))


# ------------------------------------------------- amplitude-level verification


def test_noise_expansion_agrees_on_random_phases():
    err = verify_cc_oma_noise_expansion(1.0, (5, 5), 1.0, 10_000, seed=0)
    assert err < 0.02


def test_noise_expansion_exact_corner_cases():
    # one interferer with a single phase, and no interferers at all: the
    # expansion is an identity, so the sampled error is at float precision
    assert verify_cc_oma_noise_expansion(1.0, (2,), 1.0, 16, seed=0) < 1e-12
    assert verify_cc_oma_noise_expansion(1.0, (1, 1), 1.0, 16, seed=0) < 1e-12


def test_noise_expansion_per_slot_amplitudes():
    err = verify_cc_oma_noise_expansion((1.0, 2.0), (4, 3), 0.5, 20_000, seed=3)
    assert err < 0.05
