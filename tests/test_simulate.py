"""Link-level Monte-Carlo tests: the signature construction, the SINR kernel
against the received-signal model written out in full, SINR estimates against
the closed forms, determinism, and the amplitude-level noise-expansion check
against the absolute-phase model written out in full."""

import math
import os
import signal
import sys
import threading
import time
import warnings

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
from harqscale.simulate import _BLOCK, _CHUNK_BYTES, _relative_phase_power

# seed pinned for the oracle-agreement grid: every cell lands within its own
# 95% half-width and within 5% relative error (worst cell 3.5%)
GRID_SEED = 1


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -------------------------------------------------------------- constructions


def dense_signatures(J: int, m: int, seed: int) -> np.ndarray:
    """J random unit-norm complex signatures of length m, nonzero everywhere."""
    rng = np.random.default_rng(seed)
    sigs = rng.standard_normal((J, m)) + 1j * rng.standard_normal((J, m))
    return sigs / np.linalg.norm(sigs, axis=1, keepdims=True)


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

    Trial by trial and slot by slot: y_t = a * sum_{j in A_t} s_j + z_t over
    all m coordinates, with a = sqrt(rho*sigma2) and z_t circular Gaussian of
    variance sigma2; combine the slots weighted by the conjugate amplitude,
    matched-filter with s_desired* over all m coordinates, and subtract the
    desired part T*a^2.  On the coordinates where s_desired is nonzero the
    noise comes from the kernel's streams: 256-trial blocks, block k drawn
    from child k of SeedSequence(seed) as (block, T, |support|, real/imag)
    normals.  Every other coordinate gets noise from a separate generator,
    so agreement with the kernel also shows that noise off the support never
    reaches the estimate.
    """
    m = sigs.shape[1]
    a = math.sqrt(rho * sigma2)
    scale = math.sqrt(sigma2 / 2.0)
    s_d = sigs[desired]
    support = np.flatnonzero(s_d)
    off_support = np.random.default_rng(seed + 1000)
    children = np.random.SeedSequence(seed).spawn(-(-trials // 256))
    res_power = []
    for k, child in enumerate(children):
        n = min(256, trials - 256 * k)
        on_support = np.random.default_rng(child).standard_normal((n, T, support.size, 2))
        draws = off_support.standard_normal((n, T, m, 2))
        draws[:, :, support, :] = on_support
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
        (None, 12, 6, 0.7, 2.0, [(0, 3, 5), (3,), (1, 2, 3, 4)], 3, 300),
    ],
)
def test_sinr_kernel_matches_explicit_received_signal_model(
    eta, m, J, rho, sigma2, active, desired, trials
):
    # uneven active sets, runs that cross a 256-trial block boundary,
    # rho*sigma2 != 1, where a dropped amplitude on the filtered noise shows,
    # and (eta None) a dense random signature matrix, whose support is all m
    # coordinates
    if eta is None:
        sigs = dense_signatures(J, m, 5)
        assert np.count_nonzero(sigs[desired]) == m
    else:
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


@pytest.mark.parametrize("rho", [1e40, 1e70, 1e77])
def test_constant_residual_power_is_a_named_error(rho):
    # interference-limited far enough that the filtered noise falls below the
    # last bit of the coherent interference: every trial gives the same
    # residual power, so the run says nothing about the estimate's spread (at
    # 1e70 the variance is exactly 0; at 1e40 and 1e77 it is not, only because
    # the mean of the equal powers rounds)
    sigs = make_equicorrelated_signatures(64, 5, 0.1)
    with pytest.raises(DegenerateResidual, match=r"rho\*sigma2.*same residual power"):
        simulate_cc_noma_sinr(sigs, rho, 1.0, 2, [range(5)] * 2, 0, 2000, 0)


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


def _chunk_spanning_trials(T: int, support_size: int) -> int:
    # enough trials for at least three chunks, the last block one trial long
    per_chunk = max(1, _CHUNK_BYTES // (_BLOCK * T * support_size * 16))
    return (2 * per_chunk + 1) * _BLOCK + 1


def test_sinr_estimate_is_worker_count_invariant():
    # streams keyed by block index plus pairwise reduction: the estimate must
    # not depend on how the chunks were split across threads, including runs
    # that end inside, exactly on, or just past a 256-trial block boundary,
    # and runs of three or more chunks (equi-correlated at T = 4, and a dense
    # signature) that end in a partial block (a short switch interval makes
    # the threads interleave as often as they can, so a race on the shared
    # per-trial array would show)
    equi = make_equicorrelated_signatures(16, 5, 0.1)
    dense = dense_signatures(5, 16, 3)
    cases = [(equi, 2, trials) for trials in (1, 255, 256, 257, 600, 2000)]
    cases += [(equi, 4, _chunk_spanning_trials(4, 2)), (dense, 2, _chunk_spanning_trials(2, 16))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sigs, T, trials in cases:
            runs = [
                simulate_cc_noma_sinr(sigs, 1.0, 1.0, T, [range(5)] * T, 0, trials, 9, workers=w)
                for w in (1, 2, 3, 8)
            ]
            assert len({r.mean for r in runs}) == 1, (T, trials)
            assert len({r.half_width_95 for r in runs}) == 1, (T, trials)
    finally:
        sys.setswitchinterval(interval)


# (mean, half_width_95) as float.hex, recorded from the 256-trial-block
# kernel that drew each block's noise on the filter's support
FROZEN_ESTIMATES = [
    ("T1", 1, [range(5)], 10_000, "0x1.b7b8560169675p-1", "0x1.13b216c74a90ap-6"),
    ("T2", 2, [range(5)] * 2, 10_000, "0x1.83d1a2d1145b9p+0", "0x1.d641f50dbd9cfp-6"),
    ("T4", 4, [range(5)] * 4, 10_000, "0x1.3c2e40d9cd418p+1", "0x1.6e3303a0a6f66p-5"),
    ("257", 2, [range(5)] * 2, 257, "0x1.98b55864d399ep+0", "0x1.7b7b9b8d85dd3p-3"),
    ("dense", 3, [(0, 3, 5), (3,), (1, 2, 3, 4)], 300,
     "0x1.f97dc3777f549p+0", "0x1.89244c1476f5bp-3"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, T, active, trials, mean_hex, half_hex", FROZEN_ESTIMATES)
def test_sinr_random_streams_are_frozen(name, T, active, trials, mean_hex, half_hex, workers):
    # the criterion-6 cells at eta = 0.1, 5 users, m = 64 (seed 1), a run
    # one trial past a block boundary and a dense signature: a change to the
    # seeding, the draw layout or the order of the reductions moves these
    # bits, so any such change is a deliberate data change
    if name == "dense":  # the dense case of the explicit-model test above
        est = simulate_cc_noma_sinr(dense_signatures(6, 12, 5), 0.7, 2.0, T, active, 3, trials,
                                    11, workers)
    else:
        sigs = make_equicorrelated_signatures(64, 5, 0.1)
        est = simulate_cc_noma_sinr(sigs, 1.0, 1.0, T, active, 0, trials, 1, workers)
    assert est.mean == float.fromhex(mean_hex)
    assert est.half_width_95 == float.fromhex(half_hex)


# a run of three chunks at T = 4, eta = 0.1, so that workers=2 uses two threads
POOLED = (make_equicorrelated_signatures(16, 5, 0.1), 1.0, 1.0, 4, [range(5)] * 4, 0, 5000, 2)


def test_worker_threads_are_kept_between_calls(monkeypatch):
    first = simulate_cc_noma_sinr(*POOLED, workers=2)
    threads = threading.active_count()
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for _ in range(3):
        assert simulate_cc_noma_sinr(*POOLED, workers=2) == first
    # one worker, or one chunk (T = 1, eta = 0: one support coordinate, so
    # 10^4 trials fit one chunk), starts no thread
    assert simulate_cc_noma_sinr(*POOLED, workers=1) == first
    one_chunk = make_equicorrelated_signatures(16, 5, 0.0)
    for workers in (1, 2):
        simulate_cc_noma_sinr(one_chunk, 1.0, 1.0, 1, [range(5)], 0, 10_000, 2, workers)
    assert started == []
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_the_simulator_on_worker_threads():
    # the child inherits the parent's pool but none of its threads; a task
    # queued on that pool would never run, so a deadlock fails within 10 s
    want = simulate_cc_noma_sinr(*POOLED, workers=2)
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        # the child, the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if simulate_cc_noma_sinr(*POOLED, workers=2) == want else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's workers=2 call did not return within 10 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


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


@pytest.mark.parametrize("trials, workers, name", [(0, 1, "trials"), (10, 0, "workers")])
def test_sinr_trials_and_workers_must_be_positive(trials, workers, name):
    sigs = make_equicorrelated_signatures(16, 5, 0.1)
    with pytest.raises(ValueError, match=name):
        simulate_cc_noma_sinr(sigs, 1.0, 1.0, 1, [range(5)], 0, trials, 0, workers=workers)


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
    with pytest.raises(UnsupportedCombination):
        analytic_sinr(Scheme.IR_OMA, 1.0, 2, (5, 5))


# ------------------------------------------------- amplitude-level verification


def test_noise_expansion_agrees_on_random_phases():
    err = verify_cc_oma_noise_expansion(1.0, (5, 5), 1.0, 10_000, seed=0)
    assert err < 0.02


def test_noise_expansion_exact_corner_cases():
    # one interferer with a single phase, and no interferers at all: the
    # expansion is an identity, so the sampled error is at float precision
    assert verify_cc_oma_noise_expansion(1.0, (2,), 1.0, 16, seed=0) < 1e-12
    assert verify_cc_oma_noise_expansion(1.0, (1, 1), 1.0, 16, seed=0) < 1e-12
    # no phasor is drawn at all, so the sampled power is the noise term itself
    assert verify_cc_oma_noise_expansion(1.0, (1, 1, 1), 1.0, 1000, seed=0) == 0.0
    # a per-slot amplitude and a small noise term: every phasor has modulus 1
    # to float64 precision, where float32 cos/sin alone are ~1e-7 off
    assert verify_cc_oma_noise_expansion((0.5,), (2,), 1e-3, 1000, seed=0) < 1e-12


def test_noise_expansion_needs_occupied_slots_and_trials():
    with pytest.raises(ValueError, match="slot"):
        verify_cc_oma_noise_expansion(1.0, (5, 0), 1.0, 100, seed=0)
    with pytest.raises(ValueError, match="trials"):
        verify_cc_oma_noise_expansion(1.0, (5, 5), 1.0, 0, seed=0)


def test_noise_expansion_per_slot_amplitudes():
    err = verify_cc_oma_noise_expansion((1.0, 2.0), (4, 3), 0.5, 20_000, seed=3)
    assert err < 0.05


# the relative deviation as float.hex, recorded from the float32-phase
# sampler: a change to the draws, the phasors' normalisation or the order of
# the reductions moves these bits, so any such change is a data change
FROZEN_AMPLITUDE = [
    (1.0, (5, 5), 1.0, 10_000, 0, "0x1.468fed48d399ap-11"),
    # w = 36 phasors a trial, the last chunk a partial one
    (1.0, [10] * 4, 1.0, 10_000, 1, "0x1.1196bf0327e66p-8"),
    ((1.0, 2.0), (4, 3), 0.5, 2_001, 3, "0x1.9e78e56beec29p-6"),
    (3.0, [1, 6, 2], 0.25, 5_000, 11, "0x1.e66a842958439p-6"),
]


@pytest.mark.parametrize("amps, counts, sigma2, trials, seed, err_hex", FROZEN_AMPLITUDE)
def test_noise_expansion_random_streams_are_frozen(amps, counts, sigma2, trials, seed, err_hex):
    err = verify_cc_oma_noise_expansion(amps, counts, sigma2, trials, seed)
    assert err == float.fromhex(err_hex)


def absolute_phase_cross_power(amps, counts, trials: int, rng) -> np.ndarray:
    """Per-trial cross-term power of the absolute-phase model, written out:
    in slot t the desired user has its own phase theta_t and each interferer
    its own phase phi_tk, and the cross term is
    sum_t a_t**2 exp(i theta_t) sum_k exp(-i phi_tk), in float64 ``exp``."""
    cross = np.zeros(trials, dtype=complex)
    for a, c in zip(amps, counts):
        own = rng.uniform(0.0, 2.0 * math.pi, trials)
        others = rng.uniform(0.0, 2.0 * math.pi, (trials, c - 1))
        cross += a * np.exp(1j * own) * (a * np.exp(-1j * others)).sum(axis=1)
    return cross.real**2 + cross.imag**2


def relative_phase_cross_power(weights, trials: int, seed: int) -> np.ndarray:
    """The same power from the relative-phase sampler's stream, formed with
    float64 ``exp``: the float32 phases it draws, in trial order, each a
    unit phasor carrying its weight."""
    psi = np.random.default_rng(seed).random((trials, len(weights)), dtype=np.float32)
    cross = np.exp(1j * (psi * np.float32(2.0 * math.pi)).astype(float)) @ np.asarray(weights)
    return cross.real**2 + cross.imag**2


@pytest.mark.parametrize("amps, counts", [
    (1.0, (5, 5)), ((1.0, 2.0), (4, 3)), (0.3, (2, 3, 4)),
])
def test_relative_phases_sample_the_absolute_phase_model(amps, counts):
    # the sampled mean of the cross-term power under the two phase laws, at
    # seeds fixed before the first run, within 4 combined standard errors
    trials = 20_000
    amps = np.broadcast_to(np.asarray(amps, dtype=float), (len(counts),))
    weights = np.repeat(amps * amps, np.array(counts) - 1)
    new = _relative_phase_power(weights, trials, 5)
    old = absolute_phase_cross_power(amps, counts, trials, np.random.default_rng(6))
    se = math.sqrt(new.var(ddof=1) / trials + old.var(ddof=1) / trials)
    assert abs(new.mean() - old.mean()) <= 4.0 * se


def test_relative_phase_power_fills_every_trial_across_chunks():
    # one trial more than a chunk holds: the last chunk is one row long, and
    # every row is the phasor sum of its own slice of the stream
    weights = np.array([1.0, 0.25, 0.25, 4.0, 4.0])
    rows = _CHUNK_BYTES // (16 * weights.size)
    power = _relative_phase_power(weights, rows + 1, 7)
    want = relative_phase_cross_power(weights, rows + 1, 7)
    assert power.shape == (rows + 1,)
    assert np.allclose(power, want, rtol=0.0, atol=1e-6 * weights.sum() ** 2)


@pytest.mark.parametrize("amps, counts", [(1.0, (1, 3)), ((0.5, 2.0, 1.5), (3, 1, 2))])
def test_noise_expansion_with_single_user_slots(amps, counts):
    # a slot without interferers adds no phasor; the others keep their weights
    amps = np.broadcast_to(np.asarray(amps, dtype=float), (len(counts),))
    weights = np.repeat(amps * amps, np.array(counts) - 1)
    assert weights.size == sum(counts) - len(counts)
    power = _relative_phase_power(weights, 3000, 8)
    want = relative_phase_cross_power(weights, 3000, 8)
    assert np.allclose(power, want, rtol=0.0, atol=1e-6 * weights.sum() ** 2)
    assert verify_cc_oma_noise_expansion(tuple(amps), counts, 1.0, 20_000, seed=8) < 0.05


def test_noise_expansion_is_seed_deterministic():
    a = verify_cc_oma_noise_expansion((1.0, 2.0), (4, 3), 0.5, 5000, seed=11)
    assert a == verify_cc_oma_noise_expansion((1.0, 2.0), (4, 3), 0.5, 5000, seed=11)
    assert a != verify_cc_oma_noise_expansion((1.0, 2.0), (4, 3), 0.5, 5000, seed=12)
