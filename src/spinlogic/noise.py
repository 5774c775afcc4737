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
draws (quartic law, reference amplitude ~3.2e3) and the phase channel with
independent draws (linear law, reference amplitude ~10.2), which reproduces
both reference power laws at once. Either channel can be switched to the
other convention.

Per trial, the probability error evolves one uniformly drawn logical basis
state; the phase error evolves all four basis states through one shared
perturbed sequence and takes the largest pairwise wrapped difference of the
four target phases. Trials whose target overlap drops below OVERLAP_FLOOR
have no defined phase and are excluded from the phase mean but counted.

Reproducibility: trial (eps_index, trial_index) uses the substream
SeedSequence([seed, eps_index, trial_index]), so results are independent of
the order in which trials run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import chain, encoding, gates
from .pulses import Pulse, PulseSequence

DEFAULT_SEED = 123456789
DEFAULT_N_RUNS = 1000
DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-4, 1e-2, 8))
OVERLAP_FLOOR = 1e-6

NOISE_MODES = ("independent", "common")

# reference power-law calibration for the default sweep, with acceptance bands
REFERENCE_AMPLITUDE_P = 3.183e3
REFERENCE_AMPLITUDE_Q = 10.2033
EXPONENT_BAND_P = (3.8, 4.2)
AMPLITUDE_BAND_P = (REFERENCE_AMPLITUDE_P / 2, REFERENCE_AMPLITUDE_P * 2)
EXPONENT_BAND_Q = (0.95, 1.05)
AMPLITUDE_BAND_Q = (8.7, 11.7)

CSV_HEADER = "epsilon,n_runs,mean_P,std_P,stderr_P,mean_Q,std_Q,stderr_Q,excluded_trials"


@dataclass(frozen=True)
class NoiseModel:
    epsilon: float
    mode: str = "independent"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated errors at one noise strength. max_norm_error is not persisted."""

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


@dataclass(frozen=True)
class PowerFit:
    channel: str
    amplitude: float
    exponent: float
    chi2: float
    n_points: int

    def json(self) -> str:
        return (
            f'{{"channel": "{self.channel}", "amplitude": {self.amplitude:.17g}, '
            f'"exponent": {self.exponent:.17g}, "chi2": {self.chi2:.17g}, '
            f'"n_points": {self.n_points}}}'
        )


def perturb(sequence: PulseSequence, noise: NoiseModel, rng: np.random.Generator) -> PulseSequence:
    """Copy of the sequence with Gaussian duration deviations; tags are dropped."""
    n = len(sequence)
    if noise.mode == "common":
        deltas = [rng.normal(0.0, noise.epsilon)] * n
    else:
        deltas = rng.normal(0.0, noise.epsilon, size=n).tolist()
    pulses = tuple(Pulse(pulse.bond, pulse.duration + d) for pulse, d in zip(sequence.pulses, deltas))
    return PulseSequence(sequence.name, pulses)


@cache
def _lab():
    """Shared frame, ideal swap targets and sequence (built once)."""
    frame = encoding.pair_frame()
    targets = frame.vectors[:, [gates.SWAP_PERMUTATION[i] for i in range(4)]]
    return frame, targets, gates.swap_sequence()


def probability_error(initial_index: int, perturbed: PulseSequence) -> float:
    """| 1 - |<ideal target| evolved>|^2 | for one logical basis state."""
    if initial_index not in (0, 1, 2, 3):
        raise ValueError(f"initial_index must be 0..3, got {initial_index}")
    frame, targets, _ = _lab()
    psi = gates.simulate(perturbed, frame.vectors[:, initial_index], frame.subspace)
    return _probability_error_of(targets[:, initial_index], psi)


def phase_error(perturbed: PulseSequence) -> tuple[float, bool]:
    """Largest pairwise wrapped phase spread over the four logical basis states.

    Returns (value, defined); an overlap magnitude under OVERLAP_FLOOR leaves
    the phase undefined and the trial must be excluded.
    """
    frame, targets, _ = _lab()
    return _phase_error_of(targets, gates.simulate(perturbed, frame.vectors[:, :4], frame.subspace))


def _probability_error_of(target: np.ndarray, psi: np.ndarray) -> float:
    return abs(1.0 - abs(np.vdot(target, psi)) ** 2)


def _phase_error_of(targets: np.ndarray, evolved: np.ndarray) -> tuple[float, bool]:
    overlaps = np.einsum("ij,ij->j", targets.conj(), evolved)
    if np.abs(overlaps).min() < OVERLAP_FLOOR:
        return math.nan, False
    # np.angle rather than cmath.phase, which can differ in the last bit; the
    # pairwise spread is then exact float arithmetic, cheaper on Python floats,
    # and a NaN phase (from an overflowed duration) makes it NaN as in numpy
    phases = np.angle(overlaps).tolist()
    spread = 0.0
    for i, a in enumerate(phases):
        for b in phases[i + 1:]:
            diff = abs(a - b)
            wrapped = 2 * math.pi - diff
            if wrapped < diff:
                diff = wrapped
            if diff > spread or diff != diff:
                spread = diff
    return spread, True


def _run_trial(p_noise: NoiseModel, q_noise: NoiseModel, rng: np.random.Generator) -> tuple[float, float, bool, float]:
    """One Monte-Carlo trial; draw order (state, P deltas, Q deltas) is frozen."""
    frame, targets, ideal = _lab()
    initial = int(rng.integers(4))
    psi = gates.simulate(perturb(ideal, p_noise, rng), frame.vectors[:, initial], frame.subspace)
    evolved = gates.simulate(perturb(ideal, q_noise, rng), frame.vectors[:, :4], frame.subspace)
    columns = np.concatenate((psi[:, None], evolved), axis=1)
    norm_err = max(abs(math.sqrt(sq) - 1.0) for sq in (columns.conj() * columns).real.sum(axis=0).tolist())
    q_value, defined = _phase_error_of(targets, evolved)
    return _probability_error_of(targets[:, initial], psi), q_value, defined, norm_err


def sweep(
    eps_grid=DEFAULT_EPS_GRID,
    n_runs: int = DEFAULT_N_RUNS,
    seed: int = DEFAULT_SEED,
    p_mode: str = "common",
    q_mode: str = "independent",
    n_workers: int = 1,
) -> list[SweepPoint]:
    """Monte-Carlo error sweep over a noise-strength grid, one trial at a time.

    Aggregation is over per-trial result arrays indexed by trial number, so
    running any trial alone from its substream gives the value the sweep
    used. n_workers accepts only 1: threads gave no speed-up, since a trial
    is Python-bound and holds the interpreter lock. A negative seed, and an
    epsilon whose trials overflow (non-finite P or Q, or an infinite
    duration), raise ValueError.
    """
    for mode in (p_mode, q_mode):
        if mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {mode!r}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (trials run serially), got {n_workers}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ValueError("the epsilon grid is empty")
    for eps in eps_grid:
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"epsilon values must be finite and nonnegative, got {eps!r}")

    points = []
    for eps_index, eps in enumerate(eps_grid):
        p_vals = np.empty(n_runs)
        q_vals = np.empty(n_runs)
        defined = np.empty(n_runs, dtype=bool)
        norm_errs = np.empty(n_runs)
        p_noise = NoiseModel(eps, p_mode)
        q_noise = NoiseModel(eps, q_mode)
        # near the float limit a duration overflows: a draw becomes inf (the Pulse
        # refuses it) or exp(-i*lambda*t) turns P and Q into NaN. Both are reported
        # once for the point, so numpy's per-pulse warnings are silenced here.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(n_runs):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, eps_index, j]))
                    p_vals[j], q_vals[j], defined[j], norm_errs[j] = _run_trial(p_noise, q_noise, rng)
        except ValueError as err:
            raise ValueError(f"epsilon {eps!r} overflows the trials: {err}") from None

        kept = q_vals[defined]
        if not (np.isfinite(p_vals).all() and np.isfinite(kept).all()):
            raise ValueError(f"epsilon {eps!r} overflows the trials: P or Q is not finite")
        points.append(
            SweepPoint(
                epsilon=eps,
                n_runs=n_runs,
                mean_p=float(np.mean(p_vals)),
                std_p=float(np.std(p_vals, ddof=1)) if n_runs > 1 else 0.0,
                stderr_p=float(np.std(p_vals, ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0,
                mean_q=float(np.mean(kept)) if kept.size else math.nan,
                std_q=float(np.std(kept, ddof=1)) if kept.size > 1 else 0.0,
                stderr_q=float(np.std(kept, ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0,
                excluded_trials=int(n_runs - kept.size),
                max_norm_error=float(norm_errs.max()),
            )
        )
    return points


def fit_power_law(points: list[SweepPoint], channel: str) -> PowerFit:
    """Least-squares power law a * eps^b on the log-log means of one channel.

    chi-squared uses the per-point standard errors; points with non-positive
    or non-finite means (or zero epsilon) cannot enter a log fit and are
    dropped, and fewer than three surviving points is an error.
    """
    if channel not in ("P", "Q"):
        raise ValueError(f"channel must be 'P' or 'Q', got {channel!r}")
    eps = np.array([p.epsilon for p in points])
    means = np.array([p.mean_p if channel == "P" else p.mean_q for p in points])
    errs = np.array([p.stderr_p if channel == "P" else p.stderr_q for p in points])
    keep = (eps > 0) & np.isfinite(means) & (means > 0)
    if keep.sum() < 3:
        raise ValueError(f"power-law fit needs at least 3 positive points, got {int(keep.sum())}")
    eps, means, errs = eps[keep], means[keep], errs[keep]
    slope, intercept = np.polyfit(np.log(eps), np.log(means), 1)
    amplitude = math.exp(intercept)
    model = amplitude * eps**slope
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ((means - model) / errs) ** 2
    terms = np.where((errs == 0) & (means == model), 0.0, terms)
    return PowerFit(channel, float(amplitude), float(slope), float(np.sum(terms)), int(keep.sum()))


def write_csv(points: list[SweepPoint], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(points))


def csv_text(points: list[SweepPoint]) -> str:
    lines = [CSV_HEADER]
    for p in points:
        lines.append(
            f"{p.epsilon:.17g},{p.n_runs},{p.mean_p:.17g},{p.std_p:.17g},{p.stderr_p:.17g},"
            f"{p.mean_q:.17g},{p.std_q:.17g},{p.stderr_q:.17g},{p.excluded_trials}"
        )
    return "\n".join(lines) + "\n"


def read_csv(path) -> list[SweepPoint]:
    with open(path, "r") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad sweep CSV: expected header {CSV_HEADER!r}")
    points = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 9:
            raise ValueError(f"bad sweep CSV row: {line!r}")
        point = SweepPoint(
            epsilon=float(cells[0]),
            n_runs=int(cells[1]),
            mean_p=float(cells[2]),
            std_p=float(cells[3]),
            stderr_p=float(cells[4]),
            mean_q=float(cells[5]),
            std_q=float(cells[6]),
            stderr_q=float(cells[7]),
            excluded_trials=int(cells[8]),
        )
        # rows that no sweep can write
        if point.n_runs < 1:
            raise ValueError(f"bad sweep CSV row: {line!r} (n_runs must be at least 1)")
        if not 0 <= point.excluded_trials <= point.n_runs:
            raise ValueError(f"bad sweep CSV row: {line!r} (excluded_trials must lie in [0, n_runs])")
        if not (math.isfinite(point.epsilon) and point.epsilon >= 0):
            raise ValueError(f"bad sweep CSV row: {line!r} (epsilon must be finite and nonnegative)")
        points.append(point)
    return points
