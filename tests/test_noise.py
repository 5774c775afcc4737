import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from kernel_variance import MODE_PAIRINGS, TEXTBOOK_EPSILONS, TEXTBOOK_TRIALS, trial_states
from spinlogic import chain, encoding, gates, noise
from spinlogic.pulses import Pulse, PulseSequence

PI = math.pi


# ---------------------------------------------------------------- perturb


def test_noise_model_validates_inputs():
    with pytest.raises(ValueError):
        noise.NoiseModel(-1e-3)
    with pytest.raises(ValueError):
        noise.NoiseModel(math.nan)
    with pytest.raises(ValueError):
        noise.NoiseModel(1e-3, mode="per_block")


@pytest.mark.parametrize("eps", [0.0, -0.0])
def test_zero_strength_perturbation_changes_nothing(eps):
    seq = gates.swap_sequence()
    out = noise.perturb(seq, noise.NoiseModel(eps), np.random.default_rng(0))
    assert [p.duration for p in out] == [p.duration for p in seq]
    assert [p.bond for p in out] == [p.bond for p in seq]


def test_perturbation_is_reproducible_and_independent_per_pulse():
    seq = gates.swap_sequence()
    model = noise.NoiseModel(1e-2, mode="independent")
    a = noise.perturb(seq, model, np.random.default_rng(42))
    b = noise.perturb(seq, model, np.random.default_rng(42))
    assert [p.duration for p in a] == [p.duration for p in b]
    deviations = {p.duration - 0.5 for p in a}
    assert len(deviations) == 15  # all draws distinct


def test_common_mode_shares_one_deviation():
    seq = gates.swap_sequence()
    out = noise.perturb(seq, noise.NoiseModel(1e-2, mode="common"), np.random.default_rng(7))
    deviations = {p.duration - 0.5 for p in out}
    assert len(deviations) == 1
    assert deviations.pop() != 0.0


def test_deviations_are_zero_mean_with_the_right_spread():
    seq = gates.swap_sequence()
    model = noise.NoiseModel(1e-3, mode="independent")
    rng = np.random.default_rng(123)
    draws = []
    for _ in range(400):
        draws.extend(p.duration - 0.5 for p in noise.perturb(seq, model, rng))
    draws = np.array(draws)
    n = draws.size
    assert abs(draws.mean()) < 5 * 1e-3 / math.sqrt(n)
    assert abs(draws.std() - 1e-3) < 0.1e-3


def test_negative_durations_are_legal():
    seq = PulseSequence("one", (Pulse(0, 0.5),))
    out = noise.perturb(seq, noise.NoiseModel(10.0), np.random.default_rng(5))
    # with eps = 10 some draws must go negative; the pulse object accepts them
    found_negative = False
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = noise.perturb(seq, noise.NoiseModel(10.0), rng)
        found_negative = found_negative or out.pulses[0].duration < 0
    assert found_negative


# ---------------------------------------------------------------- single-trial errors


def test_perfect_sequence_has_no_probability_error():
    seq = gates.swap_sequence()
    for i in range(4):
        assert noise.probability_error(i, seq) < 1e-12
    with pytest.raises(ValueError):
        noise.probability_error(4, seq)


def test_perfect_sequence_has_no_phase_error():
    value, defined = noise.phase_error(gates.swap_sequence())
    assert defined
    assert value < 1e-12


def test_global_phase_shifts_cancel_in_the_phase_error():
    # one extra half-period-squared pulse multiplies the whole sector by -1,
    # shifting all four phases equally: the spread must stay zero
    seq = gates.swap_sequence()
    padded = PulseSequence("padded", seq.pulses + (Pulse(0, 2.0),))
    value, defined = noise.phase_error(padded)
    assert defined
    assert value < 1e-12
    for i in range(4):
        assert noise.probability_error(i, padded) < 1e-12


def test_rotating_the_target_away_flags_the_trial():
    # a first-block flip sends logical 01 to 00, orthogonal to every swap
    # target, so the phase becomes undefined and the trial must be flagged
    flip = gates.flip_sequence("A")
    value, defined = noise.phase_error(flip)
    assert not defined
    assert math.isnan(value)


# ---------------------------------------------------------------- sweep


@pytest.mark.parametrize("eps", [0.0, -0.0])
def test_zero_noise_sweep_is_clean(eps):
    points = noise.sweep([eps], n_runs=25)
    point = points[0]
    assert math.copysign(1.0, point.epsilon) == 1.0  # -0.0 is zero noise, written as 0
    assert point.mean_p < 1e-12
    assert point.mean_q < 1e-12
    assert point.excluded_trials == 0
    assert point.max_norm_error < 1e-12


_SEEDS = (0, 1, 123456789, 2**32 - 1, 2**32, 2**64 + 1, 2**70 + 11)  # of one, two and three 32-bit words
_EPS_INDICES = (0, 7, 2**32 - 1)
_TRIALS = (range(300), range(2**31, 2**31 + 1), range(2**32 - 1, 2**32 + 2))  # the last crosses one word to two


def test_substream_states_are_seed_sequence_states():
    for seed in _SEEDS:
        for i in _EPS_INDICES:
            for trials in _TRIALS:
                want = trial_states(*([seed, i, j] for j in trials))
                got = noise._substream_states(seed, i, trials)
                assert got.dtype == np.uint64 and np.array_equal(got, want), (seed, i, trials)


def test_a_trial_generator_draws_as_its_seed_sequence_does():
    trial_seed = noise._trial_seed_class()
    for seed, i, trials in ((0, 0, range(5)), (2**70 + 11, 2**32 - 1, range(2**32 - 2, 2**32 + 1))):
        for j, state in zip(trials, noise._substream_states(seed, i, trials)):
            got = np.random.Generator(np.random.PCG64(trial_seed(state)))
            want = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
            assert got.bit_generator.state == want.bit_generator.state
            assert got.integers(4) == want.integers(4)
            assert np.array_equal(got.normal(0, 1e-3, 15), want.normal(0, 1e-3, 15))
    words = trial_seed(noise._substream_states(0, 0, range(1))[0])
    for request in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="generate_state"):
            words.generate_state(*request)


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        noise.sweep([1e-3], n_runs=0)
    with pytest.raises(ValueError):
        noise.sweep([-1e-3], n_runs=10)
    with pytest.raises(ValueError):
        noise.sweep([1e-3], n_runs=10, p_mode="nope")
    for n_workers in (0, 2):  # trials run serially
        with pytest.raises(ValueError, match="n_workers must be 1"):
            noise.sweep([1e-3], n_runs=10, n_workers=n_workers)
    with pytest.raises(ValueError, match="empty"):
        noise.sweep([], n_runs=10)


def test_a_negative_seed_is_refused_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(noise, "_run_chunk", no_trials)
    with pytest.raises(ValueError, match=re.escape("seed must be nonnegative, got -1")):
        noise.sweep([1e-3], n_runs=10, seed=-1)


@pytest.mark.parametrize(
    ("grid", "eps"),
    [((3e307, 1e-3), "3e+307"), ((1e-3, 1e308), "1e+308")],
    ids=["nan-phases", "infinite-draw"],
)
def test_an_overflowing_epsilon_is_refused_without_warnings(grid, eps):
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(ValueError, match=re.escape(f"epsilon {eps} overflows the trials")):
            noise.sweep(grid, n_runs=20)
    assert np.geterr() == before


def test_csv_round_trip(tmp_path):
    columns = noise.CSV_HEADER.lower().split(",")
    assert [field.name for field in dataclasses.fields(noise.SweepPoint)][: len(columns)] == columns
    # the last point is what a sweep writes when every trial is excluded: a NaN phase mean
    points = noise.sweep([1e-3, 3e-3], n_runs=30) + [noise.SweepPoint(3.0, 5, 0.5, 0.25, 0.125, math.nan, 0.0, 0.0, 5)]
    path = tmp_path / "sweep.csv"
    noise.write_csv(points, path)
    text = path.read_text()
    assert text.splitlines()[0] == noise.CSV_HEADER
    back = noise.read_csv(path)
    assert len(back) == len(points)
    for original, loaded in zip(points, back):
        np.testing.assert_array_equal([getattr(loaded, c) for c in columns], [getattr(original, c) for c in columns])


def test_read_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad sweep CSV: expected header')}"):
        noise.read_csv(path)
    path.write_text(noise.CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad sweep CSV row: ')}"):
        noise.read_csv(path)


@pytest.mark.parametrize(
    "row",
    [
        "0.001,0,0,0,0,0,0,0,0",  # n_runs below 1
        "0.001,-5,0,0,0,0,0,0,0",
        "0.001,10,0,0,0,0,0,0,-1",  # excluded_trials outside [0, n_runs]
        "0.001,10,0,0,0,0,0,0,11",
        "-0.001,10,0,0,0,0,0,0,0",  # epsilon negative or not finite
        "nan,10,0,0,0,0,0,0,0",
        "inf,10,0,0,0,0,0,0,0",
        "-inf,10,0,0,0,0,0,0,0",
        "1e-3,10,1e-6,-1,1e-7,1e-3,1e-3,1e-4,0",  # a spread negative or not finite
        "0.001,10,0,0,nan,0,0,0,0",
        "0.001,10,nan,0,0,0,0,0,0",  # mean_P not finite
        "0.001,10,0,0,0,nan,0,0,0",  # mean_Q not finite though no trial was excluded
        "0.001,1.5,0,0,0,0,0,0,0",  # a cell that does not convert
        "0.001,10,abc,0,0,0,0,0,0",
    ],
)
def test_read_csv_rejects_rows_no_sweep_writes(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{noise.CSV_HEADER}\n0.002,10,0,0,0,0,0,0,10\n{row}\n")  # the first row is legal
    with pytest.raises(ValueError, match=re.escape(f"bad sweep CSV row: {row!r} (")):
        noise.read_csv(path)


def test_independent_probability_channel_scales_quadratically():
    # with per-pulse draws the second-order term survives: P ~ 90 * eps^2
    points = noise.sweep([1e-4, 1e-3], n_runs=300, p_mode="independent")
    ratio = points[1].mean_p / points[0].mean_p
    assert 60 < ratio < 160  # two decades for one decade of eps
    assert 40 < points[1].mean_p / 1e-6 < 160


def test_common_probability_channel_scales_quartically():
    points = noise.sweep([1e-3, 1e-2], n_runs=300, p_mode="common")
    ratio = points[1].mean_p / points[0].mean_p
    assert 3e3 < ratio < 3e4


def test_common_phase_channel_loses_the_linear_term():
    # the logical states share the run-summed error generator eigenvalue, so
    # common-mode dephasing is suppressed far below the independent channel
    ind = noise.sweep([1e-3], n_runs=200, q_mode="independent")[0]
    com = noise.sweep([1e-3], n_runs=200, q_mode="common")[0]
    assert com.mean_q < ind.mean_q / 100


def test_excluded_trials_counted_at_huge_noise():
    points = noise.sweep([3.0], n_runs=40)
    point = points[0]
    assert 0 <= point.excluded_trials <= 40
    if point.excluded_trials < 40:
        assert math.isfinite(point.mean_q)


# ---------------------------------------------------------------- fits


def test_power_law_fit_recovers_exact_data():
    points = [
        noise.SweepPoint(eps, 100, 2.0 * eps**3, 0.1, 0.01, 5.0 * eps, 0.1, 0.01, 0)
        for eps in (1e-4, 1e-3, 1e-2, 1e-1)
    ]
    fit_p = noise.fit_power_law(points, "P")
    assert fit_p.amplitude == pytest.approx(2.0, rel=1e-10)
    assert fit_p.exponent == pytest.approx(3.0, abs=1e-12)
    assert fit_p.chi2 == pytest.approx(0.0, abs=1e-16)
    assert fit_p.n_points == 4
    fit_q = noise.fit_power_law(points, "Q")
    assert fit_q.amplitude == pytest.approx(5.0, rel=1e-10)
    assert fit_q.exponent == pytest.approx(1.0, abs=1e-12)


def test_chi_squared_uses_the_standard_errors():
    # residual of exactly one standard error at each of three points
    base = [
        noise.SweepPoint(eps, 100, 4.0 * eps**2, 0.1, 0.0, 1.0, 0.1, 0.1, 0)
        for eps in (1e-3, 1e-2, 1e-1)
    ]
    fit = noise.fit_power_law(base, "Q")  # means all 1.0: flat law, amplitude 1
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-16)
    shifted = [
        noise.SweepPoint(1e-3, 100, 1, 0, 0, 1.1, 0.1, 0.1, 0),
        noise.SweepPoint(1e-2, 100, 1, 0, 0, 1.0, 0.1, 0.1, 0),
        noise.SweepPoint(1e-1, 100, 1, 0, 0, 1.0, 0.1, 0.1, 0),
    ]
    fit2 = noise.fit_power_law(shifted, "Q")
    model = fit2.amplitude * np.array([1e-3, 1e-2, 1e-1]) ** fit2.exponent
    expected_chi2 = float(np.sum(((np.array([1.1, 1.0, 1.0]) - model) / 0.1) ** 2))
    assert fit2.chi2 == pytest.approx(expected_chi2, rel=1e-12)


def test_fit_refuses_thin_or_degenerate_data():
    points = [noise.SweepPoint(1e-3, 10, 0.0, 0, 0, 0.0, 0, 0, 0)]
    with pytest.raises(ValueError, match="at least 3"):
        noise.fit_power_law(points, "P")
    points = [
        noise.SweepPoint(1e-3, 10, 0.0, 0, 0, 1.0, 0, 0.1, 0),
        noise.SweepPoint(1e-2, 10, 1e-9, 0, 0, 1.0, 0, 0.1, 0),
        noise.SweepPoint(1e-1, 10, 1e-6, 0, 0, 1.0, 0, 0.1, 0),
    ]
    with pytest.raises(ValueError, match="at least 3"):
        noise.fit_power_law(points, "P")  # only two positive means
    with pytest.raises(ValueError):
        noise.fit_power_law(points, "R")
    with pytest.raises(ValueError, match="at least 2 distinct epsilons, got 1"):  # a fit through one epsilon is noise
        noise.fit_power_law([noise.SweepPoint(1e-3, 5, 1e-9, 0, 1e-10, 1e-2, 0, 1e-3, 0)] * 3, "P")
    for means in ((1e-9, 1e-6, 1e-3), (1e-3, 1e-6, 1e-9)):  # a 0.2 % wide grid: slope ~ +-6900
        points = [noise.SweepPoint(e, 5, m, 0, m / 10, 1e-2, 0, 1e-3, 0) for e, m in zip((1e-3, 1.001e-3, 1.002e-3), means)]
        with pytest.raises(ValueError, match="ill-conditioned"):
            noise.fit_power_law(points, "P")


def test_a_band_is_asserted_only_in_the_mode_it_describes(swapped_mode_points):
    lines, holds = noise.report(swapped_mode_points, "independent", "common")
    assert holds and lines[1::2] == ["channel P ran in independent mode: its band describes common mode, not asserted",
                                     "channel Q ran in common mode: its band describes independent mode, not asserted"]
    lines, holds = noise.report(swapped_mode_points)
    assert not holds and [line[:15] for line in lines[1::2]] == ["FAIL  channel P", "FAIL  channel Q"]


def test_fit_json_shape():
    fit = noise.PowerFit("P", 3183.0, 3.998, 43.5, 8)
    text = fit.json()
    assert text.startswith('{"channel": "P", "amplitude": 3183')
    assert '"exponent": 3.998' in text
    assert '"n_points": 8' in text
    for chi2 in (math.inf, math.nan):  # strict JSON has no such numbers
        assert json.loads(noise.PowerFit("Q", 10.5, 1.0, chi2, 3).json()) == {
            "channel": "Q", "amplitude": 10.5, "exponent": 1.0, "chi2": None, "n_points": 3}


# ---------------------------------------------------------------- statistics


def _textbook_trial(p_noise, q_noise, rng, textbook_pulse):
    """A lone trial of _run_chunk written out: same draws, V exp(-i lambda t) V^dagger per pulse, numpy reductions.

    Q's pulses take fmod(t, 4) as their duration, as chain.swap_coefficients
    does: the pulse has period 4 and the reduction is exact, so it is the same
    operator, and a huge duration does not overflow lambda * t. The norm error
    is the implementation's own rounding, so it is taken over Q's columns
    evolved by the closed form c + s S_k, one trial and one pulse at a time;
    test_evolve_matches_the_textbook_pulse pins that form to the eigenbasis.
    """
    frame = encoding.pair_frame()
    targets = frame.vectors[:, list(gates.SWAP_PERMUTATION)]
    ideal = gates.swap_sequence()

    def evolve(sequence, state, reduce=lambda t: t):
        for pulse in sequence:
            state = textbook_pulse(pulse.bond, reduce(pulse.duration), state, frame.subspace)
        return state

    initial = int(rng.integers(4))
    psi = evolve(noise.perturb(ideal, p_noise, rng), frame.vectors[:, initial])
    q_sequence = noise.perturb(ideal, q_noise, rng)
    evolved = evolve(q_sequence, frame.vectors[:, :4], lambda t: math.fmod(t, 4.0))
    closed = frame.vectors[:, :4]
    for pulse in q_sequence:
        c, s = chain.swap_coefficients(np.array(pulse.duration))
        closed = c * closed + s * closed[frame.subspace.bond_swaps[pulse.bond]]
    p_value = abs(1.0 - abs(np.vdot(targets[:, initial], psi)) ** 2)
    overlaps = np.einsum("ij,ij->j", targets.conj(), evolved)
    defined = not np.abs(overlaps).min() < noise.OVERLAP_FLOOR  # a NaN overlap counts as defined
    phases = np.angle(overlaps)
    diffs = np.abs(phases[:, None] - phases[None, :])
    q_value = float(np.minimum(diffs, 2 * PI - diffs).max()) if defined else math.nan
    norm_err = float(np.abs(np.linalg.norm(np.column_stack((psi, closed)), axis=0) - 1.0).max())  # NaN if any norm is
    return p_value, q_value, defined, norm_err


def test_the_kernel_follows_the_leading_error_laws_on_chosen_durations():
    """At d = 1e-3, every pulse lasting 1/2 + d gives the four products a mean P of (41/6) pi^4 d^4 and each a Q of
    2 pi^3 d^3, and pulse k alone lasting 1/2 + d gives mean P terms that sum over k to 9 pi^2 d^2. These are leading
    terms: the next orders move the three values by 1.6e-6, 4.9e-6 and 3.3e-6 relative, under the 1e-4 asserted."""
    d = 1e-3
    nominal = np.array([pulse.duration for pulse in gates.swap_sequence()])
    products = [0, 1, 2, 3]
    common = np.tile(nominal + d, (4, 1))
    p_values, q_values, defined, _ = noise._run_chunk(products, common, common)
    assert defined.all()
    np.testing.assert_allclose(p_values.mean(), 41 / 6 * PI**4 * d**4, rtol=1e-4)
    np.testing.assert_allclose(q_values, 2 * PI**3 * d**3, rtol=1e-4)
    kicked = np.repeat(nominal + d * np.eye(15), 4, axis=0)  # trials 4k..4k+3 kick pulse k
    p_values, _, _, _ = noise._run_chunk(products * 15, kicked, kicked)
    np.testing.assert_allclose(p_values.reshape(15, 4).mean(axis=1).sum(), 9 * PI**2 * d**2, rtol=1e-4)


# The kernel against the textbook trial, whose pulses are einsum products: over trials [17, 0..1999] in both mode
# pairings at eps 0, 1e-4 and 1e-2 (12 000 trials), under the five kernel settings of kernel_variance, the largest
# |Q - textbook Q| was 1.55e-15 under each (Q's closed form against the eigenbasis) and the largest |P - textbook P|
# 3.0e-15 under Haswell, 2.78e-15 under Prescott and Sandybridge and 2.55e-15 under the default kernel (SkylakeX, on
# an AVX512 x86-64 CPU) and with numpy's AVX512 loops off (P's real gemms and singlet kicks against the textbook's
# complex products and phases on every row); both bounds are 4e-15. The norm errors differed by up to 1.33e-15 under
# Haswell and 1.22e-15 under the other four; NORM_TRIAL_BOUND is 2e-15.
TRIAL_BOUND = 4e-15
P_TRIAL_BOUND = 4e-15
NORM_TRIAL_BOUND = 2e-15


@pytest.mark.parametrize(("p_mode", "q_mode"), MODE_PAIRINGS)
@pytest.mark.parametrize("eps", TEXTBOOK_EPSILONS)
def test_chunk_trials_match_the_textbook_trial(p_mode, q_mode, eps, textbook_pulse, kernel_outputs):
    """Under every kernel setting, each trial of a 40-trial chunk gives the textbook trial's defined bits, its P to
    P_TRIAL_BOUND, its norm error to NORM_TRIAL_BOUND and its Q to TRIAL_BOUND, with NaN where the textbook has NaN.

    At 3e307 every duration is a multiple of 4, so each Q pulse is the identity,
    no target overlap is defined and Q is NaN in both; P overflows in some
    trials, which is what refuses such a point.
    """
    p_noise, q_noise = noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode)
    with np.errstate(all="ignore"):
        wants = np.array([_textbook_trial(p_noise, q_noise, np.random.default_rng([17, trial]), textbook_pulse)
                          for trial in range(TEXTBOOK_TRIALS)]).T
    for setting, outputs in kernel_outputs.items():
        p_values, q_values, defined, norm_errors = outputs["textbook"][p_mode, q_mode, eps]
        assert np.array_equal(defined, wants[2]), setting
        for got, want, bound in ((p_values, wants[0], P_TRIAL_BOUND), (q_values, wants[1], TRIAL_BOUND),
                                 (norm_errors, wants[3], NORM_TRIAL_BOUND)):
            np.testing.assert_allclose(got, want, rtol=0, atol=bound, err_msg=setting)  # NaN where the textbook has NaN
        if eps == 3e307:
            assert not defined.any() and not np.isfinite(p_values).all(), setting


def test_q_keeps_its_bytes_under_every_openblas_kernel(kernel_outputs):
    """Q's path calls no BLAS, so the textbook cases' Q and defined flags are the default kernel's bytes."""
    default = kernel_outputs["default"]["textbook"]
    for setting in (setting for setting in kernel_outputs if setting.startswith("openblas")):
        for case, (_, q_values, defined, _) in kernel_outputs[setting]["textbook"].items():
            assert q_values.tobytes() == default[case][1].tobytes(), (setting, case)
            assert defined.tobytes() == default[case][2].tobytes(), (setting, case)


# P's floor. eigh's V holds +-0.7071067811865475 and +-1, so diag(V V^T) - 1 = -2.2e-16 on 8 of the 15 rows of every
# bond: P's eigenbasis step loses norm, and at eps = 0 the four products end with P = 2.2-3.3e-15, not 0, under each
# kernel setting. Over those four and 5000 common-mode trials at eps = 1e-6 (sweep seeds 0-4, exact P about 2e-21), P
# differed from its column's norm loss 1 - (1 - norm error)^2 by at most 1.0e-15 under the default SkylakeX and the
# Haswell kernels and with numpy's AVX512 loops off, and by 7.8e-16 under Sandybridge and Prescott. The bound is
# 1.5e-15.
P_FLOOR_BOUND = 1.5e-15


def test_p_floor_is_the_eigenbasis_steps_norm_loss(kernel_outputs):
    """Under every kernel setting, where the exact P is far below rounding, P is the norm its column lost. Q's
    durations are exactly 1/2, whose columns lose at most 6.7e-16 of squared norm, so the returned norm error, the
    largest over a trial's columns, is P's column's wherever P's column lost more."""
    for setting, outputs in kernel_outputs.items():
        assert all((rows <= 1).all() and (rows < 1).any() for rows in outputs["v_row_norms"]), setting
        (products, _, _, _), _ = outputs["p_floor"]
        assert (products > P_FLOOR_BOUND).all(), setting
        for p_values, _, _, norm_errors in outputs["p_floor"]:
            assert np.abs(p_values - (1 - (1 - norm_errors) ** 2)).max() <= P_FLOOR_BOUND, setting


@pytest.mark.parametrize(("p_mode", "q_mode"), [("common", "independent"), ("independent", "common")])
@pytest.mark.parametrize("eps", [0.0, 1e-4, 3e307])
def test_chunk_draws_are_bitwise_numpys_normal(p_mode, q_mode, eps):
    """A chunk's scaled standard_normal rows, once 0.5 is added, are rng.normal(0, eps, 15) or, as one column that
    every pulse shares, rng.normal(0, eps)."""
    models = noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode)
    seeds = range(1000)
    initial, p_rows, q_rows = noise._draws(*models, trial_states(*([23, s] for s in seeds)))
    want_initial, want_p, want_q = [], [], []
    for s in seeds:
        rng = np.random.default_rng([23, s])
        want_initial.append(int(rng.integers(4)))
        for mode, rows in ((p_mode, want_p), (q_mode, want_q)):
            rows.append(rng.normal(0.0, eps, 15) if mode == "independent" else [rng.normal(0.0, eps)])
    assert initial == want_initial
    assert np.array_equal(p_rows, np.array(want_p) + 0.5)
    assert np.array_equal(q_rows, np.array(want_q) + 0.5)


@pytest.mark.parametrize(("p_mode", "q_mode"), [("common", "independent"), ("independent", "common"),
                                             ("common", "common")])
@pytest.mark.parametrize("n", [1, 37, 256])
def test_a_shared_duration_column_is_bitwise_the_column_repeated(p_mode, q_mode, n):
    """A common-mode channel's (n, 1) column, whose kicks or coefficients the kernel computes once per chunk,
    gives the bits of the same durations repeated over all 15 columns, which it computes once per pulse."""
    models = noise.NoiseModel(1e-2, p_mode), noise.NoiseModel(1e-2, q_mode)
    initial, p_durations, q_durations = noise._draws(*models, trial_states(*([29, j] for j in range(n))))
    assert [durations.shape[1] for durations in (p_durations, q_durations)] == [
        1 if mode == "common" else 15 for mode in (p_mode, q_mode)]
    shared = noise._run_chunk(initial, p_durations, q_durations)
    repeated = noise._run_chunk(initial, *(np.repeat(d, 15 // d.shape[1], axis=1) for d in (p_durations, q_durations)))
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(shared, repeated))


def test_run_chunk_refuses_durations_neither_1_nor_15_columns_wide():
    durations = np.full((2, 15), 0.5)
    for p_width, q_width in ((3, 15), (15, 3)):
        with pytest.raises(ValueError, match="3 (P )?durations for 15 bonds"):
            noise._run_chunk([0, 1], durations[:, :p_width], durations[:, :q_width])


# P's batched reduction against one trial's Python formula: over the 20 000
# kicked states below the largest difference was 9.99e-16; the bound is 2e-15.
P_REDUCTION_BOUND = 2e-15


def test_batched_probability_errors_match_the_per_trial_formula():
    """20 000 unit states at distances 1e-7..1e-1 from their targets, as (dim, n) columns, give one trial's Python
    P each within P_REDUCTION_BOUND, and each column reduced alone gives its batched bits."""
    _, targets, _ = noise._lab()
    rng = np.random.default_rng(2024)
    n, dim = 20_000, targets.shape[0]
    initial = rng.integers(4, size=n).tolist()
    kicks = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    kicks *= np.geomspace(1e-7, 1e-1, n)[:, None] / np.linalg.norm(kicks, axis=1, keepdims=True)
    states = targets.T[initial] + kicks
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    want = [abs(1.0 - abs(np.vdot(targets[:, i], state)) ** 2) for i, state in zip(initial, states)]
    columns = np.ascontiguousarray(states.T)
    batched = noise._probability_errors(targets, initial, columns)
    assert np.abs(batched - want).max() <= P_REDUCTION_BOUND
    alone = [noise._probability_errors(targets, initial[j:j + 1], columns[:, j:j + 1])[0] for j in range(n)]
    assert np.array_equal(batched, alone)


def test_reference_point_checks(millinoise_point):
    # high-statistics spot check at eps = 1e-3 against the calibrated laws
    point = millinoise_point
    p_ref = noise.REFERENCE_AMPLITUDE_P * 1e-3**4
    q_ref = noise.REFERENCE_AMPLITUDE_Q * 1e-3
    assert 0.5 * p_ref < point.mean_p < 2.0 * p_ref
    assert 0.8 * q_ref < point.mean_q < 1.3 * q_ref
    assert point.excluded_trials == 0


def test_common_mode_p_follows_its_exact_mean(default_sweep):
    # P(d) = 1 - |<target|psi>|^2 with every swap pulse lasting 1/2 + d, from the
    # full-space oracle, which shares no code with the sector kernel. A shift
    # d -> d + 1 only multiplies each pulse by a phase, so P has period 1 and its
    # 64 equispaced samples give the cosine coefficients a_m exactly. With
    # E[cos 2*pi*m*d] = exp(-2*pi^2*m^2*eps^2) and P(0) = 0, the mean over
    # d ~ N(0, eps^2) is sum_m a_m * expm1(-2*pi^2*m^2*eps^2).
    frame = encoding.pair_frame()
    swap = gates.swap_sequence()
    n_samples = 64
    m = np.arange(n_samples // 2 + 1)
    coefficients = []
    for source, target in enumerate(gates.SWAP_PERMUTATION):
        start = chain.embed_in_full_space(frame.vectors[:, source], frame.subspace)
        goal = chain.embed_in_full_space(frame.vectors[:, target], frame.subspace)
        p = []
        for d in np.arange(n_samples) / n_samples:
            shifted = PulseSequence("swap", tuple(Pulse(q.bond, 0.5 + d, q.tag) for q in swap))
            p.append(1.0 - abs(np.vdot(goal, chain.full_space_oracle(shifted, start))) ** 2)
        a = np.fft.rfft(p).real / n_samples
        a[1:-1] *= 2
        coefficients.append(a)
    a = np.mean(coefficients, axis=0)  # P's mean is the average over the four logical products

    assert np.abs(np.array(coefficients)[:, 16:]).max() < 1e-14  # a trigonometric polynomial of degree 15
    assert abs(-2 * PI**2 * np.sum(a * m**2)) < 1e-9  # the common shift cancels at second order
    assert 2 * PI**4 * np.sum(a * m**4) == pytest.approx(41 / 2 * PI**4, rel=1e-9)
    for point in default_sweep[0]:
        exact = np.sum(a * np.expm1(-2 * PI**2 * m**2 * point.epsilon**2))
        assert abs(point.mean_p - exact) <= 3 * point.stderr_p


def test_error_means_are_monotone_on_the_default_grid(default_sweep):
    points, _ = default_sweep
    for left, right in zip(points, points[1:]):
        slack_p = 2 * math.hypot(left.stderr_p, right.stderr_p)
        slack_q = 2 * math.hypot(left.stderr_q, right.stderr_q)
        assert right.mean_p >= left.mean_p - slack_p
        assert right.mean_q >= left.mean_q - slack_q
