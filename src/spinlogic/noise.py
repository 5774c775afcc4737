"""Monte-Carlo pulse-duration error study for the logical swap gate.

Each of the fifteen swap pulses nominally lasts half an exchange period; an
imperfect pulse lasts 1/2 + dt with dt drawn from a Gaussian of standard
deviation epsilon (negative totals are legal, the pulse just over-rewinds).
Two drawing conventions are supported, and they produce genuinely different
scaling laws because the four logical product states are exact common
eigenstates of the run-summed conjugated error generator:

  * "independent": every pulse draws its own dt. Probability error grows as
    epsilon^2 and the phase spread as epsilon.
  * "common": one dt per run shared by all fifteen pulses. The second-order
    population term cancels, leaving a quartic probability error, and the
    leading phase spread cancels too.

The default sweep therefore measures the probability channel with common
draws (quartic law, exact leading term (41/2)*pi^4*eps^4 ~ 1997 eps^4) and the
phase channel with independent draws (linear law, reference amplitude ~10.2;
the release sweep fits 10.81, so REFERENCE_AMPLITUDE_Q sits about 6 % below
it), which reproduces both reference power laws at once. Either channel can be
switched to the other convention. REFERENCE_AMPLITUDE_P = 3.183e3 sits 59 %
above the exact quartic coefficient; neither band is changed. report() gives
the verdict `sweep` and `fit` print and asserts a band only in its own mode.

Per trial, the probability error evolves one uniformly drawn logical basis
state; the phase error evolves all four basis states through one shared
perturbed sequence and takes the largest pairwise wrapped difference of the
four target phases. Trials whose target overlap drops below OVERLAP_FLOOR
have no defined phase and are excluded from the phase mean but counted.

A sweep draws each point's trials in chunks of at most CHUNK_TRIALS (_draws)
and runs the drawn arrays, each trial's initial state and P and Q durations,
through one kernel (_run_chunk). Q's chunk evolves by chain.evolve, as
gates.simulate does: each pulse moves only the rows of its bond's singlet
pairs, elementwise with no BLAS, and the pulses' common phase is applied once
per chunk. P keeps the eigenbasis (_p_factors, numpy.linalg.eigh's vectors)
until a re-recorded benchmark reference admits new bits: float64 P at the
smallest epsilon is rounding-limited, and the closed form moves its fitted
amplitude by about 1 %. Its chunk is one (dim, W) array, zero-padded to W,
the trials it holds rounded up to a multiple of 16 (_P_GRANULE), and each
pulse is two real gemms by V^T and V on its float64 view with one kick in
between on the rows of the bond's singlets, one per pair of bond_pairs: the
pulse is a phase that neither P nor the norm reads times
1 + (exp(2 pi i t) - 1) P_k, P_k the projector on those singlets. A channel in
common mode draws one (n, 1) column of durations that every pulse shares, so
Q's pair coefficients and P's kicks are computed once per chunk and broadcast
to every pulse. Each trial's reductions read only its own column, so a trial
gives the same bits in any chunk and in either duration layout.

Reproducibility: trial (eps_index, trial_index) draws from the PCG64 stream
that SeedSequence([seed, eps_index, trial_index]) seeds, so results depend
neither on the order in which trials run nor on how they are chunked. A sweep
computes those seeds a chunk at a time with SeedSequence's hash on uint32
arrays (_substream_states, which mixes each pool word into the other three
as one (3, n) operation), and a test checks them against SeedSequence itself.
Q's path calls no BLAS, so its columns keep their bytes under any OpenBLAS
kernel; P's gemms do not, and turning off numpy's AVX512 loops changes Q's.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from typing import get_type_hints

import numpy as np

from . import chain, encoding, gates
from .pulses import Pulse, PulseSequence

DEFAULT_SEED = 123456789
DEFAULT_N_RUNS = 1000
DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-4, 1e-2, 8))
OVERLAP_FLOOR = 1e-6
# trials a sweep evolves together; no result depends on it
CHUNK_TRIALS = 256
# P's chunk is zero-padded to a multiple of this many trials. A real gemm by a 15 x 15 factor on the (15, 2W) float64
# view of W trials gave every column the same bits at every even W from 2 to 512 under OpenBLAS's SkylakeX, Haswell,
# Sandybridge and Prescott kernels, while odd W (1, 37, 125) round the tail columns differently under Haswell and
# Prescott. 16, not 2, keeps 2W a multiple of 32: a margin for kernels with wider column blocks than these four.
_P_GRANULE = 16
# -1j times each bond's eigenvalue on its singlets and on the rest: P's kick is exp(first) * conj(exp(second))
_MINUS_I_LAMBDA = -1j * np.array([-1.5 * math.pi, 0.5 * math.pi])

NOISE_MODES = ("independent", "common")
DEFAULT_P_MODE, DEFAULT_Q_MODE = "common", "independent"

# reference power-law calibration for the default sweep, with acceptance bands
REFERENCE_AMPLITUDE_P = 3.183e3
REFERENCE_AMPLITUDE_Q = 10.2033
EXPONENT_BAND_P = (3.8, 4.2)
AMPLITUDE_BAND_P = (REFERENCE_AMPLITUDE_P / 2, REFERENCE_AMPLITUDE_P * 2)
EXPONENT_BAND_Q = (0.95, 1.05)
AMPLITUDE_BAND_Q = (8.7, 11.7)
# each channel's bands and the one mode they describe
_BANDS = {"P": (DEFAULT_P_MODE, EXPONENT_BAND_P, AMPLITUDE_BAND_P),
          "Q": (DEFAULT_Q_MODE, EXPONENT_BAND_Q, AMPLITUDE_BAND_Q)}


@dataclass(frozen=True)
class NoiseModel:
    epsilon: float
    mode: str = "independent"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", self.epsilon + 0.0)  # -0.0 is zero noise; numpy refuses a scale of -0.0
        _check_mode(self.mode)


def _check_mode(mode: str) -> None:
    if mode not in NOISE_MODES:
        raise ValueError(f"mode must be one of {NOISE_MODES}, got {mode!r}")


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated errors at one noise strength; the CSV persists the first nine fields, not max_norm_error."""

    epsilon: float
    n_runs: int
    mean_p: float
    std_p: float
    stderr_p: float
    mean_q: float
    std_q: float
    stderr_q: float
    excluded_trials: int
    max_norm_error: float = float("nan")


CSV_HEADER = "epsilon,n_runs,mean_P,std_P,stderr_P,mean_Q,std_Q,stderr_Q,excluded_trials"
_CSV_COLUMNS = tuple((name, get_type_hints(SweepPoint)[name]) for name in CSV_HEADER.lower().split(","))


@dataclass(frozen=True)
class PowerFit:
    channel: str
    amplitude: float
    exponent: float
    chi2: float
    n_points: int

    def json(self) -> str:
        """One strict JSON line of the fields; a non-finite number is written as null."""
        return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value) else value
                           for key, value in asdict(self).items()}, allow_nan=False)


def perturb(sequence: PulseSequence, noise: NoiseModel, rng: np.random.Generator) -> PulseSequence:
    """Copy of the sequence with Gaussian duration deviations, one draw shared by all pulses in common mode;
    tags are dropped."""
    if noise.mode == "common":
        deltas = [rng.normal(0.0, noise.epsilon)] * len(sequence)
    else:
        deltas = rng.normal(0.0, noise.epsilon, size=len(sequence)).tolist()
    pulses = tuple(Pulse(pulse.bond, pulse.duration + d) for pulse, d in zip(sequence.pulses, deltas))
    return PulseSequence(sequence.name, pulses)


@cache
def _lab():
    """Shared frame, ideal swap targets and sequence (built once)."""
    frame = encoding.pair_frame()
    targets = frame.vectors[:, [gates.SWAP_PERMUTATION[i] for i in range(4)]]
    return frame, targets, gates.swap_sequence()


@cache
def _trial_seed_class():
    """The seed type a trial's generator is built from, made on first use: importing spinlogic leaves numpy.random out."""
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        """One trial's precomputed SeedSequence state, for PCG64, which asks exactly generate_state(4, np.uint64)."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):  # is: skips np.dtype's call
                raise ValueError(f"a trial seed holds generate_state(4, np.uint64) only, got ({n_words}, {dtype})")
            return self.state

    return TrialSeed


# numpy.random.SeedSequence's hash: its pool size, 32-bit constants and shift
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32, _XSHIFT = 0xFFFFFFFF, np.uint32(16)
# row i: the three pool words other than word i, which word i is mixed into
_OTHER_WORDS = ~np.eye(_POOL_SIZE, dtype=bool)


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int, as SeedSequence splits it: 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@cache
def _hash_constants(init: int, mult: int, n_calls: int) -> np.ndarray:
    """The constants of n_calls successive hashes, an (n_calls + 1, 1) uint32 column: hash t xors constant t and
    multiplies by constant t + 1, each constant the last times mult modulo 2**32."""
    constants = [init]
    for _ in range(n_calls):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


def _substream_states(seed: int, eps_index: int, trials: range) -> np.ndarray:
    """SeedSequence([seed, eps_index, j]).generate_state(4, np.uint64) for every j in trials, one row each.

    The hash is SeedSequence's, on uint32 arrays: its constants evolve the same
    way whatever the data, so all trials whose entropy has the same number of
    words are hashed together with elementwise operations.
    """
    states = np.empty((len(trials), 4), dtype=np.uint64)
    prefix = _uint32_words(seed) + _uint32_words(eps_index)
    row, start = 0, trials.start
    while start < trials.stop:  # j's word count is constant between powers of 2**32
        n_words = len(_uint32_words(start))
        stop = min(trials.stop, 1 << 32 * n_words)
        block = np.arange(start, stop, dtype=np.uint64)  # trial indices index arrays, so they are below 2**64
        entropy = np.empty((len(prefix) + n_words, len(block)), dtype=np.uint32)
        entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
        entropy[len(prefix):] = (block >> np.arange(0, 32 * n_words, 32, dtype=np.uint64)[:, None]).astype(np.uint32)
        states[row:row + len(block)] = _generate_state(_mix_entropy(entropy))
        row, start = row + len(block), stop
    return states


def _hashmix(value: np.ndarray, constants: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashes first, ..., first + count - 1 of value, one output row each."""
    value = (value ^ constants[first:first + count]) * constants[first + 1:first + count + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy: the (_POOL_SIZE, n) pool from a (words, n) uint32 array of entropy words.

    Mixing pool word i into the other three hashes it three times, with three
    successive constants, and leaves it unchanged, so those three words are
    mixed as one (3, n) operation.
    """
    # one hash per pool word, three per pool word mixed into the others, one per pool word for each word past it
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, len(entropy)))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, constants, 0, _POOL_SIZE)
    call = _POOL_SIZE
    for src, others in enumerate(_OTHER_WORDS):
        pool[others] = _mix(pool[others], _hashmix(pool[src], constants, call, 3))
        call += 3
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, constants, call, _POOL_SIZE))
        call += _POOL_SIZE
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) from a (_POOL_SIZE, n) pool: 8 hashed words, read in
    little-endian pairs, one row of 4 per trial."""
    words = _hashmix(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def probability_error(initial_index: int, perturbed: PulseSequence) -> float:
    """| 1 - |<ideal target| evolved>|^2 | for one logical basis state."""
    if initial_index not in (0, 1, 2, 3):
        raise ValueError(f"initial_index must be 0..3, got {initial_index}")
    frame, targets, _ = _lab()
    psi = gates.simulate(perturbed, frame.vectors[:, initial_index], frame.subspace)
    return _probability_errors(targets, [initial_index], psi[:, None])[0]


def phase_error(perturbed: PulseSequence) -> tuple[float, bool]:
    """Largest pairwise wrapped phase spread over the four logical basis states.

    Returns (value, defined); an overlap magnitude under OVERLAP_FLOOR leaves
    the phase undefined and the trial must be excluded.
    """
    frame, targets, _ = _lab()
    values, defined = _phase_errors(targets, gates.simulate(perturbed, frame.vectors[:, :4], frame.subspace)[..., None])
    return values.item(), defined.item()


def _probability_errors(targets: np.ndarray, initial: list[int], psi: np.ndarray) -> np.ndarray:
    """P of each trial j of a (dim, n) chunk, psi[:, j], against the target of its initial state initial[j]."""
    overlaps = np.einsum("ij,ij->j", targets.conj()[:, initial], psi)
    return np.abs(1.0 - (overlaps.real ** 2 + overlaps.imag ** 2))


def _phase_errors(targets: np.ndarray, evolved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of each trial j of a (dim, 4, n) chunk, evolved[..., j], NaN where undefined, and whether it is defined."""
    overlaps = np.einsum("ij,ijk->kj", targets.conj(), evolved)
    defined = ~(np.abs(overlaps).min(axis=1) < OVERLAP_FLOOR)  # a NaN overlap counts as defined
    # a NaN phase (from an infinite or NaN duration) makes the spread NaN
    phases = np.angle(overlaps)
    diffs = np.abs(phases[:, :, None] - phases[:, None, :])
    spreads = np.minimum(diffs, 2 * math.pi - diffs).max(axis=(1, 2))
    return np.where(defined, spreads, math.nan), defined


def _squared_norms(chunk: np.ndarray) -> np.ndarray:
    """The squared norm of each column of a complex (dim, ..., n) chunk, as sum(re**2) + sum(im**2) over dim.

    One einsum on the float64 view, with no complex temporaries. A lone trial's
    view still has two columns, re and im, so its sums over dim are not
    collapsed into numpy's pairwise 1-D sum and round as in any chunk.
    """
    parts = chunk.view(np.float64)
    sums = np.einsum("i...,i...->...", parts, parts)
    return sums[..., 0::2] + sums[..., 1::2]


def _draws(p_noise: NoiseModel, q_noise: NoiseModel, states: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Each trial's initial state and its P and Q pulse durations, drawn from the PCG64 its row of states seeds.

    A row is SeedSequence(entropy).generate_state(4, np.uint64), the seed of
    default_rng(entropy)'s PCG64. A trial makes two calls. Its initial index
    is bits 30 and 31 of its first raw word, which is rng.integers(4):
    Lemire's method on the word's low 32 bits, (low * 4) >> 32, whose buffered
    high half nothing reads. Then one standard_normal fills the trial's row of
    P's and then Q's draws, one per pulse or one for all pulses in common mode.
    Scaled by epsilon once per chunk and added to the nominal 1/2, that is bit
    for bit what perturb draws with rng.normal(0, epsilon, n) or
    rng.normal(0, epsilon). The durations are (n, 15) arrays, one column per
    pulse, and in common mode one (n, 1) column that every pulse shares: every
    swap pulse nominally lasts 1/2, so the column is each of the trial's
    durations, and its shape tells the kernel so without comparing columns.
    """
    ideal = _lab()[2]
    (nominal,) = {pulse.duration for pulse in ideal}
    p_width, q_width = (1 if model.mode == "common" else len(ideal) for model in (p_noise, q_noise))
    rows = np.empty((len(states), p_width + q_width))
    trial_seed, generator, pcg64 = _trial_seed_class(), np.random.Generator, np.random.PCG64
    initial = []
    for state, row in zip(states, rows):
        rng = generator(pcg64(trial_seed(state)))
        initial.append(rng.bit_generator.random_raw() >> 30 & 3)
        rng.standard_normal(out=row)
    return (initial, rows[:, :p_width] * p_noise.epsilon + nominal,
            rows[:, p_width:] * q_noise.epsilon + nominal)


@cache
def _p_factors() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """P's pulse factors on the sweep's sector: per bond, numpy.linalg.eigh's V and V^T.

    chain builds the generators, so no input check is needed. The factors are
    real float64 C-ordered copies of eigh's vectors and of their transpose (the
    generators are real symmetric, so V^dagger = V^T): one real gemm on a
    complex chunk's interleaved float64 view applies them to both parts. eigh
    lists a bond's -3 pi/2 eigenvalues, those of its singlets, before its pi/2
    ones, and _run_chunk kicks those first rows.
    """
    vectors = (np.linalg.eigh(generator)[1] for generator in _lab()[0].subspace.bond_generators)
    return tuple((np.ascontiguousarray(v, dtype=np.float64), np.ascontiguousarray(v.T, dtype=np.float64))
                 for v in vectors)


def _run_chunk(initial: list[int], p_durations: np.ndarray,
               q_durations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """P, Q, whether Q is defined, and the norm error of trials j = 0..n-1, evolved together.

    P evolves logical product initial[j] for durations p_durations[j] in column
    j of a (dim, W) chunk: per pulse, two real gemms by V^T and V (_p_factors)
    on the chunk's float64 view, and in between the rows of the bond's singlets
    (one per pair of bond_pairs) times one kick, exp(-i lambda_- t)
    conj(exp(-i lambda_+ t)) with lambda_- = -3 pi/2 and lambda_+ = pi/2, which
    is finite up to t = 3.8e307 (exp(2 pi i t) would overflow from 2.9e307).
    The chunk is zero-padded to W, n rounded up to a multiple of _P_GRANULE,
    because a gemm's columns round alike only at some widths (an odd W rounds
    its tail columns differently under some OpenBLAS kernels); so a lone trial
    pays for 16 columns, not CHUNK_TRIALS.
    Q evolves all four products for q_durations[j] in a (dim, 4, n) chunk,
    trial j in [..., j], by chain.evolve in place. Each durations array has one
    column per pulse, or one column that every pulse shares (common mode, as
    _draws gives it): then P's kicks and Q's coefficients are computed once per
    chunk and broadcast to every pulse, the same bits. Every reduction reads
    each trial's column alone, so no result depends on the chunk. NaN or
    infinite durations give NaN.
    """
    frame, targets, ideal = _lab()
    bonds = [pulse.bond for pulse in ideal]
    sector, factors = frame.subspace, _p_factors()
    if (width := p_durations.shape[1]) not in (1, len(bonds)):
        raise ValueError(f"{width} P durations for {len(bonds)} bonds")
    n = len(initial)
    psi = np.zeros((sector.dim, _P_GRANULE * math.ceil(n / _P_GRANULE)), dtype=np.complex128)
    psi[:, :n] = frame.vectors[:, initial]
    rotated = np.empty_like(psi)
    phases = np.exp(_MINUS_I_LAMBDA[:, None, None] * p_durations.T)  # (2, width, n)
    kicks = np.broadcast_to(phases[0] * phases[1].conj(), (len(bonds), n))  # a shared column serves every pulse
    for bond, kick in zip(bonds, kicks):
        vectors, transpose = factors[bond]
        singlets = len(sector.bond_pairs[bond]) // 2
        np.matmul(transpose, psi.view(np.float64), out=rotated.view(np.float64))
        rotated[:singlets, :n] *= kick
        np.matmul(vectors, rotated.view(np.float64), out=psi.view(np.float64))
    psi = psi[:, :n]
    evolved = np.repeat(frame.vectors[:, :4, None], n, axis=2)
    chain.evolve(bonds, q_durations.T, evolved, sector)
    squared_norms = np.vstack([_squared_norms(psi), _squared_norms(evolved)])
    q_values, defined = _phase_errors(targets, evolved)
    return (_probability_errors(targets, initial, psi), q_values, defined,
            np.abs(np.sqrt(squared_norms) - 1.0).max(axis=0))


def sweep(
    eps_grid=DEFAULT_EPS_GRID,
    n_runs: int = DEFAULT_N_RUNS,
    seed: int = DEFAULT_SEED,
    p_mode: str = DEFAULT_P_MODE,
    q_mode: str = DEFAULT_Q_MODE,
    n_workers: int = 1,
) -> list[SweepPoint]:
    """Monte-Carlo error sweep over a noise-strength grid, CHUNK_TRIALS trials at a time.

    Aggregation is over per-trial result arrays indexed by trial number, so
    running any trial alone from its substream gives the value the sweep
    used. n_workers accepts only 1: trials run serially in the calling
    thread (a thread pool gave no speed-up). A negative seed, an
    epsilon or mode NoiseModel refuses, and an epsilon whose trials overflow
    (a non-finite P or Q) raise ValueError.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (trials run serially), got {n_workers}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ValueError("the epsilon grid is empty")
    # NoiseModel validates every epsilon and both modes before any trial runs
    models = [(NoiseModel(eps, p_mode), NoiseModel(eps, q_mode)) for eps in eps_grid]

    points = []
    for eps_index, (p_noise, q_noise) in enumerate(models):
        eps = p_noise.epsilon
        p_vals = np.empty(n_runs)
        q_vals = np.empty(n_runs)
        defined = np.empty(n_runs, dtype=bool)
        norm_errs = np.empty(n_runs)
        # near the float limit a duration overflows: an infinite draw turns P
        # or Q into NaN, and P's exp(-i*lambda*t) can leave the float range
        # (Q's coefficients take t modulo 4, so a finite t cannot overflow them).
        # That is refused once for the point below, so numpy's per-pulse
        # warnings are silenced here.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n_runs, CHUNK_TRIALS):
                trials = slice(start, min(start + CHUNK_TRIALS, n_runs))
                draws = _draws(p_noise, q_noise, _substream_states(seed, eps_index, range(n_runs)[trials]))
                p_vals[trials], q_vals[trials], defined[trials], norm_errs[trials] = _run_chunk(*draws)

        kept = q_vals[defined]
        if not (np.isfinite(p_vals).all() and np.isfinite(kept).all()):
            raise ValueError(f"epsilon {eps!r} overflows the trials: P or Q is not finite")
        points.append(SweepPoint(eps, n_runs, *_summary(p_vals), *_summary(kept),
                                 int(n_runs - kept.size), float(norm_errs.max())))
    return points


def _summary(values: np.ndarray) -> tuple[float, float, float]:
    """(mean, std, stderr) with ddof=1: no values give a NaN mean, fewer than two give 0.0 spreads."""
    mean = float(np.mean(values)) if values.size else math.nan
    if values.size < 2:
        return mean, 0.0, 0.0
    std = float(np.std(values, ddof=1))
    return mean, std, std / math.sqrt(values.size)


def fit_power_law(points: list[SweepPoint], channel: str) -> PowerFit:
    """Least-squares power law a * eps^b on the log-log means of one channel.

    chi-squared uses the per-point standard errors; points with non-positive
    or non-finite means (or zero epsilon) cannot enter a log fit and are
    dropped; fewer than three surviving points or two distinct epsilons, or an
    amplitude outside the float range, is an error.
    """
    if channel not in ("P", "Q"):
        raise ValueError(f"channel must be 'P' or 'Q', got {channel!r}")
    eps = np.array([p.epsilon for p in points])
    means, errs = (np.array([getattr(p, f"{stat}_{channel.lower()}") for p in points]) for stat in ("mean", "stderr"))
    keep = (eps > 0) & np.isfinite(means) & (means > 0)
    if keep.sum() < 3:
        raise ValueError(f"power-law fit needs at least 3 positive points, got {int(keep.sum())}")
    eps, means, errs = eps[keep], means[keep], errs[keep]
    if (distinct := len(set(eps.tolist()))) < 2:
        raise ValueError(f"power-law fit needs at least 2 distinct epsilons, got {distinct}")
    slope, intercept = np.polyfit(np.log(eps), np.log(means), 1)
    if not abs(intercept) < 700:  # a grid too narrow to pin the exponent: exp() would leave the float range
        raise ValueError(f"power-law fit is ill-conditioned: log amplitude {intercept:.4g}")
    amplitude = math.exp(intercept)
    model = amplitude * eps**slope
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ((means - model) / errs) ** 2
    terms = np.where((errs == 0) & (means == model), 0.0, terms)
    return PowerFit(channel, float(amplitude), float(slope), float(np.sum(terms)), int(keep.sum()))


def report(points: list[SweepPoint], p_mode: str = DEFAULT_P_MODE, q_mode: str = DEFAULT_Q_MODE) -> tuple[list[str], bool]:
    """The lines printed after a sweep's CSV, and whether the verdict holds: on full statistics, a channel run
    in its band's mode fails on a refused fit or a fit outside either band; any other band is not asserted."""
    _check_mode(p_mode)
    _check_mode(q_mode)
    n_runs = min(p.n_runs for p in points)
    full = n_runs >= DEFAULT_N_RUNS
    lines = [] if full else [f"low-statistics run (n_runs = {n_runs} < {DEFAULT_N_RUNS}): "
                             "fits reported, acceptance bands not asserted"]
    holds = True
    for channel, mode in (("P", p_mode), ("Q", q_mode)):
        band_mode, (b_lo, b_hi), (a_lo, a_hi) = _BANDS[channel]
        asserted = full and mode == band_mode
        try:
            fit = fit_power_law(points, channel)
        except ValueError as err:
            lines.append(f"fit refused for channel {channel}: {err}")
            holds &= not asserted
        else:
            lines.append(fit.json())
            if asserted:
                exp_ok = b_lo <= fit.exponent <= b_hi
                amp_ok = a_lo <= fit.amplitude <= a_hi
                holds &= exp_ok and amp_ok
                lines.append(f"{'PASS' if exp_ok and amp_ok else 'FAIL'}  channel {channel}: exponent {fit.exponent:.4f} "
                             f"in [{b_lo}, {b_hi}]: {'yes' if exp_ok else 'NO'}; amplitude {fit.amplitude:.4g} in "
                             f"[{a_lo:.4g}, {a_hi:.4g}]: {'yes' if amp_ok else 'NO'}")
        if full and not asserted:
            lines.append(f"channel {channel} ran in {mode} mode: its band describes {band_mode} mode, not asserted")
    return lines, holds


def write_csv(points: list[SweepPoint], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(points))


def csv_text(points: list[SweepPoint]) -> str:
    rows = [",".join(format(getattr(p, name), ".17g" if kind is float else "d") for name, kind in _CSV_COLUMNS)
            for p in points]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def read_csv(path) -> list[SweepPoint]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as err:  # a ValueError whose message names no file
        raise ValueError(f"{path}: {err}") from None
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: bad sweep CSV: expected header {CSV_HEADER!r}")
    points = []
    for line in lines[1:]:
        try:
            if len(cells := line.split(",")) != len(_CSV_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(_CSV_COLUMNS)}")
            p = SweepPoint(**{name: kind(cell) for (name, kind), cell in zip(_CSV_COLUMNS, cells)})
            spreads = (p.std_p, p.stderr_p, p.std_q, p.stderr_q)
            for ok, rule in (  # rows that no sweep writes
                (p.n_runs >= 1, "n_runs must be at least 1"),
                (0 <= p.excluded_trials <= p.n_runs, "excluded_trials must lie in [0, n_runs]"),
                (0 <= p.epsilon < math.inf, "epsilon must be finite and nonnegative"),
                (all(0 <= s < math.inf for s in spreads), "spreads must be finite and nonnegative"),
                (math.isfinite(p.mean_p), "mean_P must be finite"),
                (math.isfinite(p.mean_q) or p.excluded_trials == p.n_runs, "mean_Q must be finite if a trial was kept"),
            ):
                if not ok:
                    raise ValueError(rule)
        except ValueError as err:
            raise ValueError(f"{path}: bad sweep CSV row: {line!r} ({err})") from None
        points.append(p)
    return points
