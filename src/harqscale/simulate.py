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

Determinism: trials run in fixed blocks of 256; block k draws its noise from
child k of ``SeedSequence(seed)``, so the random streams are keyed by block
index (the counter-based seeding of Salmon et al., SC'11) and never by
thread.  Worker threads take whole blocks, each block writes its own slice of
the per-trial residual-power array, and the mean and variance are numpy's
pairwise sums over that whole array, so results are bitwise identical for any
worker count.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closedform import combined_sinr
from .errors import DegenerateResidual, DesiredInactive, DimensionTooSmall
from .params import Scheme

# Trials per block: one generator, one draw buffer (1 MiB at T = 4, m = 64)
# and one task for the worker threads.  Fixed, so that the random streams do
# not depend on the worker count.
_BLOCK = 256
_NORMAL_MIN = sys.float_info.min


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
    confidence half-width.  ``workers`` threads share out the 256-trial
    blocks; the result is the same for any value.
    """
    if len(active_per_slot) != T:
        raise ValueError(f"active_per_slot has {len(active_per_slot)} slots, expected T={T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    J, m = sigs.shape
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
    # Noise-free received slot = a * (sum of active signatures).
    slot_sums = np.stack([sigs[act].sum(axis=0) for act in active])
    signal = T * a2  # desired part of the combined matched-filter output
    # The noise-free residual (coherent cross-correlation interference) is
    # the same in every trial; only the filtered noise is drawn.
    clean_residual = a * (a * slot_sums @ desired_conj).sum() - signal

    n_blocks = -(-trials // _BLOCK)
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    res_power = np.empty(trials, dtype=float)

    def run_block(k: int) -> None:
        lo = k * _BLOCK
        hi = min(lo + _BLOCK, trials)
        rng = np.random.default_rng(children[k])
        draws = rng.standard_normal((hi - lo, T, m, 2))
        draws *= scale
        z = draws.view(complex)[..., 0]  # (block, T, m) complex noise
        residual = clean_residual + a * (z @ desired_conj).sum(axis=1)
        with np.errstate(over="ignore"):  # an overflow is reported below, by name
            res_power[lo:hi] = residual.real**2 + residual.imag**2

    if workers == 1:
        for k in range(n_blocks):
            run_block(k)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            list(pool.map(run_block, range(n_blocks)))

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
        var_res = float(np.sum((res_power - mean_res) ** 2)) / (trials - 1)
        # the numerator is formed before the division, so it needs the same
        # normal range, or a small rho*sigma2 gives a half-width of 0.0
        spread = 1.96 * signal * signal * math.sqrt(var_res / trials)
        if var_res > 0 and not _NORMAL_MIN <= spread < math.inf:
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
    J = sum of the counts, the same function ``evaluate`` calls for TIN.
    """
    counts = [int(c) for c in per_slot_counts]
    if len(counts) != T:
        raise ValueError(f"per_slot_counts has {len(counts)} slots, expected T={T}")
    if any(c < 1 for c in counts):
        raise ValueError(f"every slot needs >= 1 user, got {counts!r}")
    return combined_sinr(scheme, rho, T, float(sum(counts)), eta)


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

    This draws i.i.d. uniform phases for every (slot, user) amplitude -- which
    satisfies the zero-mean cross-user / cross-slot product assumptions the
    expansion relies on -- evaluates the interference-plus-noise power per
    trial, and returns the relative deviation of the sample mean from the
    closed form.  ``amplitude_samples`` is a common magnitude (scalar) or one
    magnitude per slot.
    """
    counts = [int(c) for c in per_slot_counts]
    if any(c < 1 for c in counts):
        raise ValueError(f"every slot needs >= 1 user, got {counts!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    T = len(counts)
    amps = np.broadcast_to(np.asarray(amplitude_samples, dtype=float), (T,))

    noise_term = sigma2 * float(np.sum(amps**2))
    expected = float(np.sum((np.array(counts) - 1) * amps**4)) + noise_term

    rng = np.random.default_rng(seed)
    cross = np.zeros(trials, dtype=complex)
    for t in range(T):
        n_int = counts[t] - 1
        if n_int == 0:
            continue
        own_phase = rng.uniform(0.0, 2.0 * math.pi, trials)
        other_phase = rng.uniform(0.0, 2.0 * math.pi, (trials, n_int))
        own = amps[t] * np.exp(1j * own_phase)
        others = (amps[t] * np.exp(-1j * other_phase)).sum(axis=1)
        cross += own * others
    sampled = cross.real**2 + cross.imag**2 + noise_term
    return abs(float(np.mean(sampled)) - expected) / expected
