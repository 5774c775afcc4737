import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_zero_strength_perturbation_changes_nothing():
    seq = gates.swap_sequence()
    out = noise.perturb(seq, noise.NoiseModel(0.0), np.random.default_rng(0))
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


def test_zero_noise_sweep_is_clean():
    points = noise.sweep([0.0], n_runs=25)
    point = points[0]
    assert point.mean_p < 1e-12
    assert point.mean_q < 1e-12
    assert point.excluded_trials == 0
    assert point.max_norm_error < 1e-12


def test_sweep_is_deterministic_and_order_independent(lone_trial_sweep):
    grid = [3e-4, 1e-3, 3e-3]
    for modes in (("common", "independent"), ("independent", "common")):
        assert noise.sweep(grid, 40, 2024, *modes) == lone_trial_sweep(grid, 40, 2024, *modes)
    assert noise.csv_text(noise.sweep(grid, 40, 2024)) != noise.csv_text(noise.sweep(grid, 40, 2025))


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

    monkeypatch.setattr(noise, "_run_trial", no_trials)
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
    points = noise.sweep([1e-3, 3e-3], n_runs=30)
    path = tmp_path / "sweep.csv"
    noise.write_csv(points, path)
    text = path.read_text()
    assert text.splitlines()[0] == noise.CSV_HEADER
    back = noise.read_csv(path)
    for original, loaded in zip(points, back):
        assert loaded.epsilon == original.epsilon
        assert loaded.mean_p == original.mean_p
        assert loaded.stderr_q == original.stderr_q
        assert loaded.excluded_trials == original.excluded_trials


def test_read_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        noise.read_csv(path)
    path.write_text(noise.CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="row"):
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
    ],
)
def test_read_csv_rejects_rows_no_sweep_writes(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{noise.CSV_HEADER}\n0.002,10,0,0,0,0,0,0,10\n{row}\n")  # the first row is legal
    with pytest.raises(ValueError, match=re.escape(f"bad sweep CSV row: {row!r}")):
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


def test_fit_json_shape():
    fit = noise.PowerFit("P", 3183.0, 3.998, 43.5, 8)
    text = fit.json()
    assert text.startswith('{"channel": "P", "amplitude": 3183')
    assert '"exponent": 3.998' in text
    assert '"n_points": 8' in text


# ---------------------------------------------------------------- statistics


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_trials_conserve_the_norm(seed):
    rng = np.random.default_rng(seed)
    common, independent = noise.NoiseModel(1e-2, mode="common"), noise.NoiseModel(1e-2, mode="independent")
    _, _, _, norm_err = noise._run_trial(common, independent, rng)
    assert norm_err < 1e-12


def _textbook_trial(p_noise, q_noise, rng):
    """_run_trial written out: same draws, V exp(-i lambda t) V^dagger per pulse, numpy reductions."""
    frame = encoding.pair_frame()
    targets = frame.vectors[:, list(gates.SWAP_PERMUTATION)]
    ideal = gates.swap_sequence()

    def evolve(sequence, state):
        for pulse in sequence:
            values, vectors = chain.bond_eigensystem(pulse.bond, frame.subspace)
            phases = np.exp(-1j * values * pulse.duration)
            weights = phases if state.ndim == 1 else phases[:, None]
            state = vectors @ (weights * (vectors.conj().T @ state))
        return state

    initial = int(rng.integers(4))
    psi = evolve(noise.perturb(ideal, p_noise, rng), frame.vectors[:, initial])
    evolved = evolve(noise.perturb(ideal, q_noise, rng), frame.vectors[:, :4])
    p_value = abs(1.0 - abs(np.vdot(targets[:, initial], psi)) ** 2)
    overlaps = np.einsum("ij,ij->j", targets.conj(), evolved)
    defined = not np.abs(overlaps).min() < noise.OVERLAP_FLOOR  # a NaN overlap counts as defined
    phases = np.angle(overlaps)
    diffs = np.abs(phases[:, None] - phases[None, :])
    q_value = float(np.minimum(diffs, 2 * PI - diffs).max()) if defined else math.nan
    norm_err = max(
        abs(float(np.linalg.norm(psi)) - 1.0),
        float(np.abs(np.linalg.norm(evolved, axis=0) - 1.0).max()),
    )
    return p_value, q_value, defined, norm_err


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(("p_mode", "q_mode"), [("common", "independent"), ("independent", "common")])
@pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-2, 3e307])  # 3e307: some durations overflow -i*lambda*t
def test_run_trial_is_bitwise_the_textbook_trial(p_mode, q_mode, eps):
    p_noise, q_noise = noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode)
    with np.errstate(all="ignore"):
        for trial in range(40):
            got = noise._run_trial(p_noise, q_noise, np.random.default_rng([17, trial]))
            want = _textbook_trial(p_noise, q_noise, np.random.default_rng([17, trial]))
            assert _same(got[0], want[0]) and _same(got[1], want[1]) and got[2] == want[2]
            assert _same(got[3], want[3]) or abs(got[3] - want[3]) <= 1e-15


def test_reference_point_checks(millinoise_point):
    # high-statistics spot check at eps = 1e-3 against the calibrated laws
    point = millinoise_point
    p_ref = noise.REFERENCE_AMPLITUDE_P * 1e-3**4
    q_ref = noise.REFERENCE_AMPLITUDE_Q * 1e-3
    assert 0.5 * p_ref < point.mean_p < 2.0 * p_ref
    assert 0.8 * q_ref < point.mean_q < 1.3 * q_ref
    assert point.excluded_trials == 0


def test_error_means_are_monotone_on_the_default_grid(default_sweep):
    points, _ = default_sweep
    for left, right in zip(points, points[1:]):
        slack_p = 2 * math.hypot(left.stderr_p, right.stderr_p)
        slack_q = 2 * math.hypot(left.stderr_q, right.stderr_q)
        assert right.mean_p >= left.mean_p - slack_p
        assert right.mean_q >= left.mean_q - slack_q
