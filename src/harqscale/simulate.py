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
thread.  Worker threads take chunks: runs of whole blocks, laid out by
``trials``, ``T`` and |support| alone, that share one draw buffer and are
reduced together, each trial by the same expressions in any chunk.  A chunk
writes its own slice of the per-trial residual-power array, and the mean and
variance are numpy's pairwise sums over that whole array, so results are
bitwise identical for any worker count.  With n workers, worker i takes
chunks i, i + n, i + 2n, ...; worker 0 is the calling thread, and the others
are threads kept between calls, one pool per thread count, each started
with all its threads on first use.  A forked child drops the pools it
inherits (their threads do not exist in it) and starts its own.  A call
with one chunk, or one worker, starts no thread.

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
from .params import Regime, Scheme

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
    {e_1..e_J, u}, which needs m >= J+1 dimensions.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta!r}")
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
    for any value.
    """
    if len(active_per_slot) != T:
        raise ValueError(f"active_per_slot has {len(active_per_slot)} slots, expected T={T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    J = sigs.shape[0]
    active = []
    for t, slot in enumerate(active_per_slot):
        act = [int(j) for j in slot]
        if desired not in act:
            raise DesiredInactive(f"desired user {desired} not active in slot {t + 1}")
        if not all(0 <= j < J for j in act):
            raise ValueError(f"slot {t + 1} active set has indices outside 0..{J - 1}")
        active.append(act)

    a2 = rho * sigma2
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
    signal = T * a2  # desired part of the combined matched-filter output
    # The noise-free residual (coherent cross-correlation interference) is
    # the same in every trial; only the filtered noise is drawn.
    clean_residual = a * (a * slot_sums @ desired_conj).sum() - signal

    n_blocks = -(-trials // _BLOCK)
    children = np.random.SeedSequence(seed).spawn(n_blocks)
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
            np.random.default_rng(children[k]).standard_normal(out=draws[b0:b0 + _BLOCK])
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
    # The estimate divides by the squares of both powers, so each square must
    # be a normal float (a subnormal one has lost digits); that bounds
    # rho*sigma2 on both sides.
    if not (_NORMAL_MIN <= signal * signal < math.inf
            and _NORMAL_MIN <= mean_res * mean_res < math.inf):
        raise DegenerateResidual(
            f"rho*sigma2 = {a2!r} is out of range for the SINR estimate: it squares the "
            f"signal power {signal!r} and the mean residual power {mean_res!r}, and a "
            f"square fell below the normal float range or overflowed"
        )
    mean_sinr = signal * signal / mean_res
    if trials > 1:
        # a large rho*sigma2 puts the filtered noise below the last bit of the
        # interference: every trial then gives the same residual power, and
        # the interval (zero-width, or as wide as the rounding of the mean)
        # would say nothing about the estimate's spread
        if res_power.min() == res_power.max():
            raise DegenerateResidual(
                f"rho*sigma2 = {a2!r} is out of range for the SINR estimate's half-width: "
                f"all {trials} trials gave the same residual power {mean_res!r}, so the "
                f"filtered noise never reached it"
            )
        var_res = float(np.sum((res_power - mean_res) ** 2)) / (trials - 1)
        # the numerator is formed before the division, so it needs the same
        # normal range, or a small rho*sigma2 gives a half-width of 0.0
        spread = 1.96 * signal * signal * math.sqrt(var_res / trials)
        if not _NORMAL_MIN <= spread < math.inf:
            raise DegenerateResidual(
                f"rho*sigma2 = {a2!r} is out of range for the SINR estimate's half-width: "
                f"1.96 * signal power**2 * sqrt(residual variance / trials) = {spread!r} "
                f"is not a normal float"
            )
        half_width = spread / mean_res**2
    else:
        half_width = 0.0
    return SinrEstimate(mean_sinr, half_width, trials, seed)


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
    :func:`harqscale.closedform.rate_function`.
    """
    counts = [int(c) for c in per_slot_counts]
    if len(counts) != T:
        raise ValueError(f"per_slot_counts has {len(counts)} slots, expected T={T}")
    if any(c < 1 for c in counts):
        raise ValueError(f"every slot needs >= 1 user, got {counts!r}")
    if scheme not in (Scheme.CC_NOMA, Scheme.CC_OMA):
        raise UnsupportedCombination(f"no chase-combining SINR for {scheme.value}")
    return combined_sinr(scheme, Regime.TIN, rho, T, float(sum(counts)), eta)


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
    (scalar) or one magnitude per slot.
    """
    counts = [int(c) for c in per_slot_counts]
    if any(c < 1 for c in counts):
        raise ValueError(f"every slot needs >= 1 user, got {counts!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    T = len(counts)
    amps = np.broadcast_to(np.asarray(amplitude_samples, dtype=float), (T,))

    interferers = np.array(counts) - 1
    noise_term = sigma2 * float(np.sum(amps**2))
    expected = float(np.sum(interferers * amps**4)) + noise_term

    weights = np.repeat(amps * amps, interferers)
    sampled = float(np.mean(_relative_phase_power(weights, trials, seed))) + noise_term
    return abs(sampled - expected) / expected
