"""Link-level Monte-Carlo cross-check for the combined-receiver SINR forms.

Model: J unit-norm complex signatures of length m (one slot = m symbols).  In
slot t every active user transmits a common real amplitude a = sqrt(rho*sigma2)
times its signature; the receiver sees the sum plus circularly-symmetric
Gaussian noise (variance sigma2 per complex symbol, sigma2/2 per real
component).  The T slots are combined with maximum-ratio weights (conjugate
amplitudes) and matched-filtered with the desired user's signature; the
estimator splits that statistic into the deterministic desired component
T*rho*sigma2 and a residual (coherent cross-correlation interference plus
filtered noise) whose mean power defines the empirical SINR.

The signatures are equi-correlated: every pairwise inner product is exactly
eta, the construction the closed forms assume (cross-slot interference adds
coherently, giving the squared-sum term).

Noise is drawn only on the matched filter's support, the coordinates where
the desired signature is nonzero; the filter multiplies noise anywhere else
by 0, so the statistic is the same function of the noise as with the full
m-coordinate waveform.  A trial draws 2*T*|support| normals: 4*T for an
equi-correlated signature (2*T at eta = 0), 2*T*m for a dense one.

Determinism: trials run in fixed blocks of 256; block k draws its noise from
child k of ``SeedSequence(seed)``, so the random streams are keyed by block
index (the counter-based seeding of Salmon et al., SC'11) and never by
thread.  The PCG64 states of all the blocks are computed in one numpy pass
before any chunk runs (:func:`_block_states`), equal bit for bit to those of
``SeedSequence(seed).spawn``, which a test checks against numpy; the threads
only build each block's generator from its state.  Worker threads take
chunks: runs of whole blocks, laid out by ``trials``, ``T`` and |support|
alone, that share one draw buffer and are reduced together, each trial by
the same expressions in any chunk.  A chunk writes its own slice of the
per-trial residual-power array, and the mean and variance are numpy's
pairwise sums over that whole array, so results are bitwise identical for
any worker count.  With n workers, worker i takes chunks i, i + n, i + 2n,
...; worker 0 is the calling thread, and the others are threads kept
between calls, one pool per thread count, each started with all its threads
on first use.  A forked child drops the pools it inherits (their threads do
not exist in it) and starts its own.  A call with one chunk, or one worker,
starts no thread.

The amplitude-level check of the orthogonal-combining noise-power expansion
(:func:`verify_cc_oma_noise_expansion`) is a separate model.  It draws each
interferer's phase relative to the desired user's, as float32 uniforms on a
grid of 2**-24 of a turn; their float32 cos and sin are cast to float64 and
rescaled to modulus 1.  Its trials run in row chunks within ``_CHUNK_BYTES``
from one generator read in order, on one thread.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closedform import combined_sinr
from .errors import DegenerateResidual, DesiredInactive, DimensionTooSmall, UnsupportedCombination
from .params import (RHO, SIGMA2, Regime, Scheme, check_count, check_member, check_real,
                     check_reals, check_T)

# Trials per block: one generator, so one slice of the random streams.
# Fixed, so that the streams depend on neither the worker count nor the
# chunk layout.
_BLOCK = 256
# Draw-buffer budget of a chunk, a run of whole blocks reduced together and
# one task for the worker threads: 8 blocks at T = 4 for an equi-correlated
# signature with eta > 0, 1 block for a dense one at m = 64.  The amplitude
# check's chunks hold as many float64 phasor pairs.
_CHUNK_BYTES = 2**18
_NORMAL_MIN = sys.float_info.min


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
# generate_state's hash constant before and after each of its 8 steps
_HASH_B = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(9)],
                   dtype=np.uint64)[:, None]


def _block_states(seed: int, n: int) -> np.ndarray:
    """The PCG64 states of ``SeedSequence(seed).spawn(n)``, one (4,) uint64
    row per child, equal to ``children[k].generate_state(4, np.uint64)``.

    Child k's entropy is the seed's 32-bit words zero-padded to the pool size
    (4) plus the spawn key k, so its pool is the parent's with k hashed into
    every word: four more steps of the ``hashmix`` sequence, whose constant
    the parent left at ``INIT_A * MULT_A**(16 + 4*(words - 4))``.  Its state
    is then ``generate_state``'s eight ``INIT_B``/``MULT_B`` steps over the
    cycled pool, paired little-endian into 64-bit words.  All of it is 32-bit
    arithmetic, done in uint64 and masked.  The key k is one 32-bit word
    while n < 2**32, which holds for any run that can allocate its
    ``trials``-long residual array (2**32 blocks would need 8 TiB for it).
    """
    words = max(4, -(-seed.bit_length() // 32))
    parent = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    h = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 2**32)
    hash_a = np.array([h * pow(_MULT_A, d, 2**32) & _MASK32 for d in range(5)],
                      dtype=np.uint64)[:, None]
    pool = (np.arange(n, dtype=np.uint64) ^ hash_a[:-1]) * hash_a[1:] & _MASK32  # hashmix(k)
    pool ^= pool >> 16
    pool = _MIX_L * parent - _MIX_R * pool & _MASK32  # mix(parent word, hashmix(k))
    pool ^= pool >> 16
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:-1]) * _HASH_B[1:] & _MASK32
    state ^= state >> 16
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


class _BlockSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed row of
    :func:`_block_states`."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


@functools.cache
def _pool(n: int) -> ThreadPoolExecutor:
    """``n`` threads that help the simulator's calling thread, kept for
    every later call."""
    pool = ThreadPoolExecutor(max_workers=n)
    # The executor starts a thread only when none is idle; tasks that wait
    # for one another make it start all n now, so no later call starts one.
    barrier = threading.Barrier(n)
    for task in [pool.submit(barrier.wait) for _ in range(n)]:
        task.result()
    return pool


# a forked child has none of the parent's threads, so a pool it inherits
# would queue its tasks forever
os.register_at_fork(after_in_child=_pool.cache_clear)


def make_equicorrelated_signatures(m: int, J: int, eta: float) -> np.ndarray:
    """J unit-norm signatures of length m, the rows of a (J, m) complex
    array, with every pairwise inner product exactly eta.

    S_j = sqrt(1-eta)*e_j + sqrt(eta)*u over the orthonormal set
    {e_1..e_J, u}, which needs m >= J+1 dimensions; m and J are counts
    (``params.check_count``).
    """
    m, J = check_count("m", m), check_count("J", J)
    eta = check_real("eta", eta, 0, 1, "[)")
    if m < J + 1:
        raise DimensionTooSmall(f"m={m} < J+1={J + 1} cannot host {J} equi-correlated signatures")
    sigs = np.zeros((J, m), dtype=complex)
    spike, common = math.sqrt(1.0 - eta), math.sqrt(eta)
    for j in range(J):
        sigs[j, j] = spike
    sigs[:, J] = common
    return sigs


@dataclass(frozen=True)
class SinrEstimate:
    mean: float            # empirical SINR, linear
    half_width_95: float   # normal-approximation 95% half-width on the mean
    trials: int
    seed: int


def _positive_normal(arg: str, check: str, what: str, value: float) -> None:
    """The range rule for the oracle's powers: ``value`` is a positive normal float (a
    subnormal one has lost digits), or DegenerateResidual names ``arg`` and ``what``."""
    if not _NORMAL_MIN <= value < math.inf:
        raise DegenerateResidual(f"{arg} is out of range for {check}: {what} = {value!r} is "
                                 f"not a positive normal float")


def simulate_cc_noma_sinr(
    sigs: np.ndarray,
    rho: float,
    sigma2: float,
    T: int,
    active_per_slot: Sequence[Sequence[int]],
    desired: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SinrEstimate:
    """Estimate the post-combining matched-filter SINR of the desired user.

    ``sigs`` holds one unit-norm signature per row, shape (J, m).  Per
    trial: fresh noise, received slots, MRC across the T slots, matched
    filter with the desired signature.  The desired component of that output
    is the trial-independent T*rho*sigma2; everything else (coherent
    cross-correlations plus filtered noise) is the residual.  The estimate is
    (T*rho*sigma2)^2 over the mean residual power, with a delta-method
    confidence half-width.  ``workers`` threads, the calling thread among
    them, share out the chunks of 256-trial blocks; the result is the same
    for any value.  rho, sigma2 and T follow ``SchemeParams``; the user
    indices, ``trials``, ``seed`` and ``workers`` follow ``params.check_count``.
    """
    rho = check_real("rho", rho, *RHO)
    sigma2 = check_real("sigma2", sigma2, *SIGMA2)
    T = check_T(T)
    if len(active_per_slot) != T:
        raise ValueError(f"active_per_slot has {len(active_per_slot)} slots, expected T={T}")
    trials, workers = check_count("trials", trials), check_count("workers", workers)
    seed, desired = check_count("seed", seed, 0), check_count("desired", desired, 0)
    J = sigs.shape[0]
    active = []
    for t, slot in enumerate(active_per_slot):
        act = [check_count("active_per_slot index", j, -math.inf) for j in slot]
        if desired not in act:
            raise DesiredInactive(f"desired user {desired} not active in slot {t + 1}")
        if not all(0 <= j < J for j in act):
            raise ValueError(f"active_per_slot has indices outside 0..{J - 1} in slot {t + 1}")
        active.append(act)

    a2 = rho * sigma2
    signal = T * a2  # desired part of the combined matched-filter output
    # The estimate divides by the squares of the signal power and of the mean
    # residual power, so each must be a normal float; that bounds rho*sigma2
    # on both sides.  The signal's is known before any trial is drawn, and a
    # run past its bound would overflow on the way.
    arg, check = f"rho*sigma2 = {a2!r}", "the SINR estimate"
    _positive_normal(arg, check, "the squared signal power", signal * signal)
    a = math.sqrt(a2)
    scale = math.sqrt(sigma2 / 2.0)
    desired_conj = np.conj(sigs[desired])
    # The matched filter reads only the coordinates where the desired
    # signature is nonzero; noise anywhere else is multiplied by 0, so it is
    # never drawn.
    support = np.flatnonzero(desired_conj)
    filt = desired_conj[support]
    # Noise-free received slot = a * (sum of active signatures).
    slot_sums = np.stack([sigs[act].sum(axis=0) for act in active])
    # The noise-free residual (coherent cross-correlation interference) is
    # the same in every trial; only the filtered noise is drawn.
    clean_residual = a * (a * slot_sums @ desired_conj).sum() - signal

    n_blocks = -(-trials // _BLOCK)
    states = _block_states(seed, n_blocks)
    # a block's draws take 16 bytes (two float64) per trial, slot and coordinate
    per_chunk = max(1, _CHUNK_BYTES // (_BLOCK * T * support.size * 16))
    n_chunks = -(-n_blocks // per_chunk)
    res_power = np.empty(trials, dtype=float)

    def run_chunk(c: int) -> None:
        k0, k1 = c * n_blocks // n_chunks, (c + 1) * n_blocks // n_chunks
        lo, hi = k0 * _BLOCK, min(k1 * _BLOCK, trials)
        draws = np.empty((hi - lo, T, support.size, 2))
        for k in range(k0, k1):  # block k fills its own slice from child k
            b0 = (k - k0) * _BLOCK
            rng = np.random.Generator(np.random.PCG64(_BlockSeed(states[k])))
            rng.standard_normal(out=draws[b0:b0 + _BLOCK])
        draws *= scale
        z = draws.view(complex)[..., 0]  # (chunk, T, |support|) complex noise
        residual = (z @ filt).sum(axis=1)
        residual *= a
        residual += clean_residual
        power = res_power[lo:hi]
        with np.errstate(over="ignore"):  # an overflow is reported below, by name
            np.square(residual.real, out=power)
            power += np.square(residual.imag)

    n_workers = min(workers, n_chunks)

    def run_chunks(first: int) -> None:
        for c in range(first, n_chunks, n_workers):
            run_chunk(c)

    # the calling thread is worker 0; n_workers - 1 pool threads help it
    helpers = [_pool(n_workers - 1).submit(run_chunks, i) for i in range(1, n_workers)]
    try:
        run_chunks(0)
    finally:
        for helper in helpers:
            helper.result()

    with np.errstate(over="ignore"):
        mean_res = float(np.sum(res_power)) / trials
    _positive_normal(arg, check, "the squared mean residual power", mean_res * mean_res)
    mean_sinr = signal * signal / mean_res
    if trials > 1:
        # a large rho*sigma2 puts the filtered noise below the last bit of the
        # interference: every trial then gives the same residual power, and
        # the interval (zero-width, or as wide as the rounding of the mean)
        # would say nothing about the estimate's spread
        if res_power.min() == res_power.max():
            raise DegenerateResidual(
                f"{arg} is out of range for {check}'s half-width: "
                f"all {trials} trials gave the same residual power {mean_res!r}, so the "
                f"filtered noise never reached it"
            )
        var_res = float(np.sum((res_power - mean_res) ** 2)) / (trials - 1)
        # the numerator is formed before the division, so it needs the same
        # normal range, or a small rho*sigma2 gives a half-width of 0.0
        spread = 1.96 * signal * signal * math.sqrt(var_res / trials)
        _positive_normal(arg, f"{check}'s half-width",
                         "1.96 * signal power**2 * sqrt(residual variance / trials)", spread)
        half_width = spread / mean_res**2
    else:
        half_width = 0.0
    return SinrEstimate(mean_sinr, half_width, trials, seed)


def _slot_counts(per_slot_counts: Sequence[int]) -> list[int]:
    counts = [check_count("per_slot_counts", c, -math.inf) for c in per_slot_counts]
    if not counts or min(counts) < 1:
        raise ValueError(f"per_slot_counts needs >= 1 slot and >= 1 user a slot, got {counts!r}")
    return counts


def analytic_sinr(
    scheme: Scheme,
    rho: float,
    T: int,
    per_slot_counts: Sequence[int],
    eta: float = 0.0,
) -> float:
    """Closed-form post-combining SINR for chase combining with the given
    per-slot user counts: :func:`harqscale.closedform.combined_sinr` at
    J = sum of the counts; ``evaluate`` reads the same TIN form through
    :func:`harqscale.closedform.rate_function`.  rho, T and eta follow the
    rules of ``SchemeParams``; the counts follow ``params.check_count``.
    """
    check_member("scheme", scheme, Scheme)
    T = check_T(T)
    counts = _slot_counts(per_slot_counts)
    if len(counts) != T:
        raise ValueError(f"per_slot_counts has {len(counts)} slots, expected T={T}")
    if scheme not in (Scheme.CC_NOMA, Scheme.CC_OMA):
        raise UnsupportedCombination(f"no chase-combining SINR for {scheme.value}")
    return combined_sinr(scheme, Regime.TIN, rho, T, sum(counts), eta)


def _relative_phase_power(weights: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Per-trial |sum_k weights[k] * exp(i psi_k)|**2 over i.i.d. uniform phases psi.

    The phases are float32 draws, ``rng.random(dtype=float32) * float32(2 pi)``,
    so uniform on a grid of 2**-24 of a turn, from one ``default_rng(seed)``
    read in trial order.  Their float32 cos and sin are cast to float64 and
    rescaled to modulus 1 (float32 puts them up to about 1e-7 off it).  The
    trials run in row chunks of ``_CHUNK_BYTES`` of float64 phasor pairs.
    """
    rng = np.random.default_rng(seed)
    power = np.zeros(trials)
    if weights.size:
        rows = max(1, _CHUNK_BYTES // (16 * weights.size))
        for lo in range(0, trials, rows):
            psi = rng.random((min(rows, trials - lo), weights.size), dtype=np.float32)
            psi *= np.float32(2.0 * math.pi)
            c = np.cos(psi).astype(float)
            s = np.sin(psi).astype(float)
            inv = c * c
            inv += s * s
            np.sqrt(inv, out=inv)
            np.divide(1.0, inv, out=inv)
            c *= inv
            s *= inv
            re, im = c @ weights, s @ weights
            power[lo:lo + re.size] = re * re + im * im
    return power


def verify_cc_oma_noise_expansion(
    amplitude_samples: float | Sequence[float],
    per_slot_counts: Sequence[int],
    sigma2: float,
    trials: int,
    seed: int,
) -> float:
    """Check the orthogonal-combining noise-power expansion on sampled phases.

    The effective noise power after combining expands into pairwise amplitude
    products plus the filtered-noise term:

        P_N = sum_t sum_{j' != j} |a_t|^2 |a_t|^2  +  sigma2 * sum_t |a_t|^2.

    Every (slot, user) amplitude carries an i.i.d. uniform phase, which
    satisfies the zero-mean cross-user / cross-slot product assumptions the
    expansion relies on.  The desired user's phase theta_t and an
    interferer's phase phi_tk enter the cross term only through their
    difference psi_tk = theta_t - phi_tk (mod 2 pi), and these differences
    are themselves i.i.d. uniform.  So the cross term is
    sum_t a_t**2 sum_k exp(i psi_tk), one weight a_t**2 per interferer on a
    unit phasor, which :func:`_relative_phase_power` samples (float32 phase
    grid, float64 phasors of modulus 1, chunked trials).  Returns the
    relative deviation of the sampled mean of the interference-plus-noise
    power from the closed form.  ``amplitude_samples`` is a common magnitude
    or one magnitude per slot (``params.check_reals``), finite and >= 0;
    sigma2 follows the rule of ``SchemeParams``; the counts, ``trials`` and
    ``seed`` follow ``params.check_count``.  An amplitude whose powers leave
    the float range, so that the expected power, its interference part (when
    there are interferers) or the sampled power is not a positive normal
    float, raises DegenerateResidual.
    """
    counts = _slot_counts(per_slot_counts)
    sigma2 = check_real("sigma2", sigma2, *SIGMA2)
    trials, seed = check_count("trials", trials), check_count("seed", seed, 0)
    T = len(counts)
    # one magnitude or a sequence, as numpy nests it: a nested value is no number
    amps = np.array(check_reals("amplitude_samples",
                                np.array(amplitude_samples, dtype=object, ndmin=1).tolist()))
    if amps.size not in (1, T):
        raise ValueError(f"amplitude_samples has {amps.size} values for {T} slots")
    amps = np.broadcast_to(amps, (T,))
    if not ((0.0 <= amps) & (amps < math.inf)).all():
        raise ValueError(f"amplitude_samples must be finite and >= 0, got {amplitude_samples!r}")

    interferers = np.array(counts) - 1
    arg, check = f"amplitude_samples = {amplitude_samples!r}", "the noise-expansion check"
    # a power out of the float range is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        noise_term = sigma2 * float(np.sum(amps**2))
        interference = float(np.sum(interferers * amps**4))
        expected = interference + noise_term
        _positive_normal(arg, check, "the expected power", expected)
        if interferers.any():
            _positive_normal(arg, check, "the interference part", interference)
        weights = np.repeat(amps * amps, interferers)
        sampled = float(np.mean(_relative_phase_power(weights, trials, seed))) + noise_term
    _positive_normal(arg, check, "the sampled power", sampled)
    return abs(sampled - expected) / expected
