import json
import math

import pytest

from spinlogic import cli, gates, noise


def run_cli(*argv) -> int:
    """The CLI in-process. A test that must show what a process would print takes capfd, which also catches writes
    to file descriptor 2, and recwarn, which records every warning, even one numpy would print once per location."""
    return cli.main(list(argv))


# ---------------------------------------------------------------- bad input


@pytest.mark.parametrize(
    ("argv", "message", "in_child"),
    [
        (["verify", "--check", "nonsense"], "unknown check 'nonsense'; choose from: frame-orthonormality, ", False),
        (["simulate", "--gate", "F", "--state", "1,0"], "expected 2 amplitudes (re,im pairs), got 1", False),
        (["sweep", "--eps", "abc", "--out", "/nonexistent/sweep.csv"], "--eps: could not convert string to float: 'abc'",
         True),
        (["fit", "--csv", "/nonexistent/sweep.csv"], "[Errno 2] No such file or directory: '/nonexistent/sweep.csv'",
         False),
        (["export-schedule", "--gate", "P"], "gate P needs --theta", False),
        (["verify", "--corrupt-t2", "abc"], "argument --corrupt-t2: invalid float value: 'abc'", False),
        (["simulate", "--gate", "P", "--theta", "abc", "--state", "1,0", "0,0"],
         "argument --theta: invalid float value: 'abc'", False),
        (["simulate", "--gate", "X", "--state", "1,0", "0,0"], "argument --gate: invalid choice: 'X'", False),
        (["sweep", "--eps", "-0,1e-3"], "argument --eps: expected one argument", False),  # --eps=-0,1e-3 works
        (["simulate", "--gate", "P", "--theta", "400", "--degrees", "--state", "1,0", "0,0"],
         "--theta must lie in [0, 360] degrees, got 400.0", False),
    ],
    ids=["verify", "simulate", "sweep", "fit", "export-schedule", "corrupt-t2-text", "theta-text", "unknown-gate",
         "eps-leading-minus", "theta-degrees-range"],
)
def test_every_command_reports_bad_input_in_one_line(argv, message, in_child, capsys, fresh_python):
    """Exit 2, no stdout and one stderr line. The cases run through cli.main, where an escaping exception or a
    RuntimeWarning fails the test; one runs through `python -m spinlogic`, the process's own exit status and stderr."""
    if in_child:
        done = fresh_python("-m", "spinlogic", *argv)
        status, out, err = done.returncode, done.stdout, done.stderr
    else:
        status = run_cli(*argv)
        out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)
    assert "Traceback" not in err


# ---------------------------------------------------------------- verify


def test_verify_passes_and_lists_every_check(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    verdicts = [line.split() for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [words[1] for words in verdicts] == [
        "frame-orthonormality", "auxiliary-decoupling", "logical-projection",
        "flip-annihilation", "flip-gate", "flip-phase-condition", "hadamard-gate",
        "phase-gate", "spin-swap-phase", "cycle-permutation", "swap-gate",
        "swap-phase", "full-space-oracle",
    ]
    assert {words[0] for words in verdicts} == {"PASS"}
    assert out.splitlines()[-1] == "all 13 checks passed"


# Every eigensolver is replaced before spinlogic is imported by one that records its name and then solves, so a
# called eigensolver fails only the eigensolver test and verify still runs to the numpy.random reading.
_VERIFY_IN_A_FRESH_PROCESS = """
import json
import sys
import numpy

eager = "numpy.random" in sys.modules  # numpy before 2.0 imports it with itself
eigensolver_calls = []

def recorded(name, solver):
    def solve(*args, **kwargs):
        eigensolver_calls.append(name)
        return solver(*args, **kwargs)
    return solve

for name in ("eig", "eigh", "eigvals", "eigvalsh"):
    setattr(numpy.linalg, name, recorded(name, getattr(numpy.linalg, name)))
from spinlogic import cli, encoding, gates, noise
status = cli.main(["verify"])
random_after_verify = "numpy.random" in sys.modules
frame = encoding.pair_frame()
gates.simulate(gates.swap_sequence(), frame.vectors[:, :4], frame.subspace)
before_sweeps = len(eigensolver_calls)
noise.sweep([1e-3], n_runs=2)
noise.sweep([1e-3], n_runs=2, p_mode="independent", q_mode="common")
print(json.dumps({"verify_status": status, "eager": eager, "random_after_verify": random_after_verify,
                  "eigensolver_calls": eigensolver_calls[:before_sweeps],
                  "sweep_eigensolver_calls": eigensolver_calls[before_sweeps:]}))
"""


@pytest.fixture(scope="module")
def verify_in_a_fresh_process(fresh_python):
    """One `verify`, one swap simulate and two small sweeps in a fresh process, read by the tests of what that
    process does."""
    done = fresh_python("-c", _VERIFY_IN_A_FRESH_PROCESS)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_verify_does_not_import_numpy_random(verify_in_a_fresh_process):
    """verify draws no random numbers, so its processes should not pay for importing numpy.random."""
    assert verify_in_a_fresh_process["verify_status"] == 0
    if verify_in_a_fresh_process["eager"]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert verify_in_a_fresh_process["random_after_verify"] is False


def test_verify_and_the_swap_call_no_eigensolver(verify_in_a_fresh_process):
    """Every pulse of verify and simulate takes chain.evolve's closed form; only the sweep's P pulses diagonalize."""
    assert verify_in_a_fresh_process["verify_status"] == 0
    assert verify_in_a_fresh_process["eigensolver_calls"] == []


def test_only_the_sweeps_p_factors_diagonalize(verify_in_a_fresh_process):
    """Two sweeps, one per mode pairing, diagonalize once per bond of the 6-spin sector: P's factors, built once."""
    assert verify_in_a_fresh_process["sweep_eigensolver_calls"] == ["eigh"] * 5


def test_verify_single_check_prints_the_measured_swap_phase(capsys):
    assert run_cli("verify", "--check", "swap-phase") == 0
    out = capsys.readouterr().out
    assert f"{math.pi / 4:.17g}" in out
    assert "measured overall swap phase" in out


def test_verify_rejects_unknown_check(capsys):
    assert run_cli("verify", "--check", "nonsense") == 2


def test_verify_fails_with_corrupted_timing(capsys):
    # t2 = 0.75 off by 0.05 and by a relative 1e-13 (flip-gate's error is then 2.2e-13)
    for corrupt_t2 in ("0.7", "0.750000000000075"):
        assert run_cli("verify", "--corrupt-t2", corrupt_t2) == 1
        verdicts = {words[1]: words[0] for words in map(str.split, capsys.readouterr().out.splitlines())
                    if words[0] in ("PASS", "FAIL")}
        assert [name for name, verdict in verdicts.items() if verdict == "FAIL"] == ["flip-annihilation", "flip-gate"]


def test_a_huge_corrupt_t2_fails_both_flip_checks_as_zero_does_with_no_warnings(capsys):
    # a pulse has period 4 and a duration enters as fmod(t, 4), which is exact: 1e308 is a multiple of 4
    assert run_cli("verify", "--corrupt-t2", "1e308") == 1
    captured = capsys.readouterr()
    verdicts = {words[1]: words for words in map(str.split, captured.out.splitlines()) if words[0] in ("PASS", "FAIL")}
    for name in ("flip-annihilation", "flip-gate"):
        assert verdicts[name][0] == "FAIL"
    assert captured.err == ""
    assert run_cli("verify", "--corrupt-t2", "0") == 1
    assert capsys.readouterr() == (captured.out, "")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_corrupt_t2(capsys, value):
    assert run_cli("verify", f"--corrupt-t2={value}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"--corrupt-t2 must be a finite duration, got {float(value)!r}"]


# ---------------------------------------------------------------- simulate


def test_simulate_flip_reports_global_phase(capsys):
    assert run_cli("simulate", "--gate", "F", "--state", "1,0", "0,0") == 0
    out = capsys.readouterr().out
    assert f"{gates.FLIP_PHASE:.17g}" in out
    assert "leakage" in out
    assert "V1(t4) V0(t3) V1(t2) V0(t1)" in out


def test_simulate_swap_takes_four_amplitudes(capsys):
    assert run_cli("simulate", "--gate", "SWAP",
                   "--state", "0,0", "1,0", "0,0", "0,0") == 0
    out = capsys.readouterr().out
    assert "|10>" in out


@pytest.mark.parametrize(("argv", "zero_labels", "label", "phase"), [
    (["--gate", "F", "--state", "1,0", "0,0"], ["0"], "1", gates.FLIP_PHASE),
    (["--gate", "SWAP", "--state", "0,0", "1,0", "0,0", "0,0"], ["00", "01", "11"], "10", math.pi / 4),
], ids=["flip", "swap"])
def test_simulate_prints_no_phase_for_round_off_amplitudes(capsys, argv, zero_labels, label, phase):
    """Amplitudes below PHASE_MODULUS_FLOOR print their modulus and no phase; the others keep their phase."""
    assert run_cli("simulate", *argv) == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  |")}
    for zero in zero_labels:
        assert rows[f"|{zero}>"].endswith("|amp| 0.000000000000  phase undefined")
    assert rows[f"|{label}>"].endswith(f"|amp| 1.000000000000  phase {phase:+.12f} rad")


def test_simulate_phase_gate_in_degrees(capsys):
    assert run_cli("simulate", "--gate", "P", "--theta", "90", "--degrees",
                   "--state", "0,0", "1,0") == 0
    out = capsys.readouterr().out
    assert "deg" in out


def test_simulate_rejects_bad_input(capsys):
    assert run_cli("simulate", "--gate", "F", "--state", "1,0") == 2
    assert run_cli("simulate", "--gate", "F", "--state", "1,0", "1,0") == 2
    assert run_cli("simulate", "--gate", "P", "--state", "1,0", "0,0") == 2
    assert run_cli("simulate", "--gate", "P", "--theta", "7.0",
                   "--state", "1,0", "0,0") == 2  # out of [0, 2*pi]
    capsys.readouterr()
    assert run_cli("simulate", "--gate", "X", "--state", "1,0", "0,0") == 2
    [line] = capsys.readouterr().err.splitlines()
    # Python versions differ in how they quote the choices
    assert line.startswith("argument --gate: invalid choice: 'X' (choose from ")


@pytest.mark.parametrize("state", [("1,0", "nan,0"), ("nan,nan", "0,0"), ("1,inf", "0,0")])
def test_simulate_rejects_non_finite_amplitudes(capsys, state):
    assert run_cli("simulate", "--gate", "F", "--state", *state) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


def test_simulate_rejects_overflowing_amplitudes_with_one_line(capfd, recwarn):
    # squaring 1e200 overflows; numpy's warning must not reach stderr
    assert run_cli("simulate", "--gate", "F", "--state", "1e200,0", "0,0") == 2
    assert capfd.readouterr() == ("", "amplitudes not normalized: sum |c|^2 = inf\n")
    assert [str(warning.message) for warning in recwarn] == []


# ---------------------------------------------------------------- schedules


def test_export_swap_schedule(capsys):
    assert run_cli("export-schedule", "--gate", "SWAP") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 15
    bonds = [int(line.split()[0]) for line in lines]
    assert bonds == [4, 3, 2, 1, 0] * 3
    for line in lines:
        bond, tag, decimal = line.split(" ")
        assert tag == "1/2"
        assert float(decimal) == 0.5


def test_export_flip_schedule_round_trips(capsys):
    assert run_cli("export-schedule", "--gate", "F") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [int(l.split()[0]) for l in lines] == [0, 1, 0, 1]
    assert [float(l.split()[2]) for l in lines] == [gates.T1, gates.T2, gates.T3, gates.T4]
    assert [l.split()[1] for l in lines] == ["t1", "t2", "t3", "t4"]


def test_export_schedule_to_file_and_other_gates(tmp_path, capsys):
    target = tmp_path / "phase.schedule"
    theta = 2.5
    assert run_cli("export-schedule", "--gate", "P", "--theta", str(theta),
                   "--out", str(target)) == 0
    line = target.read_text().strip()
    bond, tag, decimal = line.split(" ")
    assert bond == "1"
    assert tag == f"t(theta={theta:.17g})"
    assert float(decimal) == gates.phase_gate_duration(theta)
    capsys.readouterr()  # drop the "wrote ..." confirmation

    assert run_cli("export-schedule", "--gate", "H", "--qubit", "B") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [int(l.split()[0]) for l in lines] == [4, 3, 4]

    assert run_cli("export-schedule", "--gate", "FPH", "--solution", "1") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert [float(l.split()[2]) for l in lines] == [gates.T1_ALT, gates.T2_ALT, gates.T3_ALT]

    assert run_cli("export-schedule", "--gate", "P") == 2  # theta missing


def test_the_bare_flip_schedule_is_the_flips_first_three_pulses(capsys):
    assert run_cli("export-schedule", "--gate", "F") == 0
    flip = capsys.readouterr().out.splitlines(keepends=True)
    assert run_cli("export-schedule", "--gate", "FPH") == 0
    assert capsys.readouterr().out == "".join(flip[:3])


def test_export_schedule_to_a_missing_directory_is_bad_input(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "swap.schedule"
    assert run_cli("export-schedule", "--gate", "SWAP", "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "swap.schedule" in captured.err


# ---------------------------------------------------------------- sweep and fit


def test_small_sweep_writes_csv_and_warns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--eps", "1e-3,3e-3,1e-2", "--n-runs", "30",
                   "--seed", "99", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "low-statistics" in printed
    assert "seed = 99 (source: flag)" in printed
    text = out.read_text()
    assert text.splitlines()[0] == noise.CSV_HEADER
    assert len(text.splitlines()) == 4


def test_sweep_csv_equals_its_trials_run_alone(tmp_path, lone_trial_sweep):
    """The CSV the command writes is the one its trials give when each runs alone from its substream."""
    out = tmp_path / "a.csv"
    assert run_cli("sweep", "--eps", "1e-3,3e-3", "--n-runs", "24", "--seed", "7", "--out", str(out)) == 0
    assert out.read_text() == noise.csv_text(lone_trial_sweep([1e-3, 3e-3], 24, 7))


def test_a_negative_zero_epsilon_sweeps_as_zero_noise(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    assert run_cli("sweep", "--eps=-0,1e-3,1e-2", "--n-runs", "5", "--out", str(out)) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["0", "0.001", "0.01"]
    assert "fit refused for channel P" in capsys.readouterr().out


def test_degenerate_sweep_refuses_the_fit(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    assert run_cli("sweep", "--eps", "0", "--n-runs", "10", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "fit refused" in printed


def test_a_swapped_mode_release_sweep_passes(tmp_path, capsys, monkeypatch, swapped_mode_points):
    monkeypatch.setattr(noise, "sweep", lambda *args, **kwargs: swapped_mode_points)
    assert run_cli("sweep", "--p-mode", "independent", "--q-mode", "common", "--out", str(tmp_path / "s.csv")) == 0
    assert capsys.readouterr().out.count("not asserted\n") == 2


@pytest.mark.parametrize(("grid", "refusal"), [("1e-3,1e-3,1e-3", "needs at least 2 distinct epsilons, got 1"),
                                               ("1e-3,1e-3,1.001e-3", "is ill-conditioned: log amplitude")])
def test_a_degenerate_grid_refuses_the_fit_without_warnings(tmp_path, capfd, recwarn, grid, refusal):
    assert run_cli("sweep", "--eps", grid, "--n-runs", "5", "--out", str(tmp_path / "dup.csv")) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert f"fit refused for channel P: power-law fit {refusal}" in out
    assert [str(warning.message) for warning in recwarn] == []


def test_sweep_to_a_missing_directory_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(noise, "sweep", no_trials)
    target = tmp_path / "no-such-dir" / "sweep.csv"
    assert run_cli("sweep", "--eps", "1e-3,2e-3", "--n-runs", "10", "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "sweep.csv" in captured.err


def test_sweep_over_an_empty_grid_is_bad_input(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run_cli("sweep", "--eps-points", "0", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["the epsilon grid is empty"]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--eps", "3e307,1e-3,1e-2"], "epsilon 3e+307 overflows the trials: P or Q is not finite"),
        (["--eps", "1e308"], "epsilon 1e+308 overflows the trials: P or Q is not finite"),
        (["--eps-max", "inf"], "eps-max must be finite and positive, got inf"),
        (["--eps-max", "nan"], "eps-max must be finite and positive, got nan"),
        (["--eps-min", "0"], "eps-min must be finite and positive, got 0.0"),
    ],
    ids=["nan-phases", "infinite-draw", "eps-max-inf", "eps-max-nan", "eps-min-zero"],
)
def test_sweep_rejects_an_unusable_epsilon_with_one_line(tmp_path, capfd, recwarn, argv, message):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", *argv, "--n-runs", "20", "--out", str(out)) == 2
    assert capfd.readouterr() == ("", message + "\n")
    assert [str(warning.message) for warning in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--eps", "1e-3", "--n-runs", str(10**15)], ["--eps-points", str(10**15)]],
                         ids=["n-runs", "eps-points"])
def test_a_sweep_too_large_to_allocate_is_bad_input(tmp_path, capfd, recwarn, argv):
    # 10**15 float64s are 7 PiB, past the address space, so numpy refuses before allocating
    out = tmp_path / "huge.csv"
    assert run_cli("sweep", *argv, "--out", str(out)) == 2
    stdout, stderr = capfd.readouterr()
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and "Unable to allocate" in stderr
    assert not out.exists()
    assert [str(warning.message) for warning in recwarn] == []


@pytest.mark.parametrize(
    ("argv", "config", "message"),
    [
        (["--eps", "1e-3,abc"], None, "--eps: could not convert string to float: 'abc'"),
        (["--eps", "1e-3,,2e-3"], None, "--eps: could not convert string to float: ''"),
        ([], b"eps = 1e-3,abc\n", "{config}: eps: could not convert string to float: 'abc'"),
        (["--n-runs", "abc"], None, "--n-runs: invalid literal for int() with base 10: 'abc'"),
        (["--eps-points", "-1"], None, "eps-points must be nonnegative, got -1"),
        ([], b"eps-points = -1\n", "eps-points must be nonnegative, got -1"),
        (["--eps", "1e-3", "--p-mode", "nope"], None, f"mode must be one of {noise.NOISE_MODES}, got 'nope'"),
        ([], b"\x80eps = 1e-3\n", "{config}: 'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"),
        ([], b"n_runs = 3\nseed = 1\nn-runs = 4\n", "{config}:3: n-runs is set twice, first on line 1"),
    ],
    ids=["eps-flag", "eps-flag-empty-item", "eps-config", "n-runs-flag", "eps-points-flag", "eps-points-config",
         "p-mode-flag", "config-not-text", "config-key-twice"],
)
def test_a_bad_sweep_setting_is_one_line_naming_it(tmp_path, capsys, argv, config, message):
    out = tmp_path / "sweep.csv"
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config)
        argv = [*argv, "--config", str(path)]
        message = message.format(config=path)
    assert run_cli("sweep", *argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize("key", ["eps-min", "eps-max"])
def test_config_log_grid_bounds_are_checked(tmp_path, capsys, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = inf\nout = {tmp_path / 'cfg.csv'}\n")
    assert run_cli("sweep", "--config", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{key} must be finite and positive, got inf"]
    assert not (tmp_path / "cfg.csv").exists()


@pytest.mark.parametrize("argv", [["--seed", "-1", "--eps", "1e-3"], ["--eps", "3e307"]], ids=["seed", "eps"])
def test_a_refused_sweep_leaves_out_as_it_was(tmp_path, argv):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for out in (new, old):
        assert run_cli("sweep", *argv, "--n-runs", "5", "--out", str(out)) == 2
    assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize(
    "source, seed, message",
    [("flag", "-1", "seed must be nonnegative, got -1"), ("env", "-1", "seed must be nonnegative, got -1"),
     ("env", "abc", "SPINLOGIC_SEED: invalid literal for int() with base 10: 'abc'")],
    ids=["flag", "env", "env-not-an-integer"],
)
def test_sweep_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, source, seed, message):
    def no_trials(*args):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(noise, "_run_chunk", no_trials)
    argv = ["sweep", "--eps", "1e-3", "--n-runs", "10", "--out", str(tmp_path / "sweep.csv")]
    if source == "flag":
        argv += ["--seed", seed]
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_seed_from_environment_is_echoed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "31415")
    out = tmp_path / "env.csv"
    assert run_cli("sweep", "--eps", "1e-3,2e-3", "--n-runs", "10", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "seed = 31415" in printed
    assert "env SPINLOGIC_SEED" in printed


def test_config_file_feeds_the_sweep_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep settings\n"
        "eps = 1e-3,2e-3\n"
        "n-runs = 12\n"
        "seed = 555\n"
        f"out = {tmp_path / 'cfg.csv'}\n"
    )
    assert run_cli("sweep", "--config", str(config)) == 0
    printed = capsys.readouterr().out
    assert "seed = 555" in printed
    assert "config" in printed
    assert (tmp_path / "cfg.csv").exists()

    # a flag beats the file
    assert run_cli("sweep", "--config", str(config), "--seed", "777",
                   "--out", str(tmp_path / "cfg2.csv")) == 0
    printed = capsys.readouterr().out
    assert "seed = 777 (source: flag)" in printed


def test_every_config_key_matches_its_flag(tmp_path, capsys):
    values = {"eps-min": "1e-3", "eps-max": "4e-3", "eps-points": "3", "n-runs": "15", "seed": "42",
              "p-mode": "independent", "q-mode": "common"}
    config = tmp_path / "run.cfg"
    # a "#" after whitespace starts a comment; inside a value it is kept
    config.write_text("".join(f"{key} = {value} # as --{key}\n" for key, value in values.items())
                      + f"out = {tmp_path / 'cfg#1.csv'}\n")
    assert run_cli("sweep", "--config", str(config)) == 0
    flags = [item for key, value in values.items() for item in (f"--{key}", value)]
    assert run_cli("sweep", *flags, "--out", str(tmp_path / "flags.csv")) == 0
    capsys.readouterr()
    assert (tmp_path / "cfg#1.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_config_rejects_a_bad_mode_with_one_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    for lines, message in (
        ("n-runs = 5\np-mode = nope", f"mode must be one of {noise.NOISE_MODES}, got 'nope'"),
        ("n-runs = abc", f"{config}: n-runs: invalid literal for int() with base 10: 'abc'"),
    ):
        config.write_text(f"eps = 1e-3\n{lines}\nout = {tmp_path / 'cfg.csv'}\n")
        assert run_cli("sweep", "--config", str(config)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]
        assert not (tmp_path / "cfg.csv").exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    for key in ("volume", "workers"):
        config.write_text(f"{key} = 2\n")
        assert run_cli("sweep", "--config", str(config)) == 2
        assert capsys.readouterr().err.splitlines() == [f"unknown config keys: {key}"]


def test_the_removed_workers_flag_is_bad_input(capsys):
    assert run_cli("sweep", "--workers", "2") == 2
    assert capsys.readouterr().err.splitlines() == ["unrecognized arguments: --workers 2"]


def test_fit_command_refits_a_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    points = noise.sweep([1e-4, 1e-3, 1e-2], n_runs=60, seed=3)
    noise.write_csv(points, out)
    assert run_cli("fit", "--csv", str(out)) == 0
    printed = capsys.readouterr().out
    assert '"channel": "P"' in printed
    assert '"channel": "Q"' in printed
    assert "low-statistics" in printed


def test_fit_takes_the_modes_the_csv_does_not_record(tmp_path, capsys, swapped_mode_points):
    csv = tmp_path / "swapped.csv"
    noise.write_csv(swapped_mode_points, csv)
    assert run_cli("fit", "--csv", str(csv), "--p-mode", "independent", "--q-mode", "common") == 0
    assert capsys.readouterr().out.count("not asserted\n") == 2
    assert run_cli("fit", "--csv", str(csv)) == 1  # the default modes assert both bands, which these laws miss
    assert capsys.readouterr().out.count("FAIL  channel") == 2
    assert run_cli("fit", "--csv", str(csv), "--q-mode", "nope") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"mode must be one of {noise.NOISE_MODES}, got 'nope'"]


def test_fit_lines_are_strict_json(tmp_path, capsys):
    # one run per point gives zero standard errors, so chi-squared is infinite
    assert run_cli("sweep", "--eps", "1e-3,2e-3,3e-3", "--n-runs", "1", "--out", str(tmp_path / "one.csv")) == 0
    fits = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert [(fit["channel"], fit["chi2"]) for fit in fits] == [("P", None), ("Q", None)]


def test_refused_fit_with_asserted_bands_is_a_verification_failure(tmp_path, capsys):
    csv = tmp_path / "zero.csv"
    csv.write_text(noise.CSV_HEADER + "\n" + "".join(
        f"{eps},1000,0,0,0,0,0,0,0\n" for eps in (1e-3, 2e-3, 4e-3)
    ))
    assert run_cli("fit", "--csv", str(csv)) == 1
    printed = capsys.readouterr().out
    assert "fit refused for channel P" in printed
    assert "fit refused for channel Q" in printed
    assert "low-statistics" not in printed


@pytest.mark.parametrize(
    "row",
    ["0.001,0,0,0,0,0,0,0,0", "0.001,10,0,0,0,0,0,0,11", "-0.001,10,0,0,0,0,0,0,0", "nan,10,0,0,0,0,0,0,0",
     "1e-3,10,1e-6,-1,1e-7,1e-3,1e-3,1e-4,0", "0.001,10,nan,0,0,0,0,0,0", "0.001,10,0,0,nan,0,0,0,0",
     "0.001,10,0,0,0,nan,0,0,0", "0.001,1.5,0,0,0,0,0,0,0", "0.001,10,abc,0,0,0,0,0,0"],
)
def test_fit_rejects_a_row_no_sweep_writes(tmp_path, capsys, row):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"{noise.CSV_HEADER}\n{row}\n")
    assert run_cli("fit", "--csv", str(csv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "bad sweep CSV row" in captured.err


def test_fit_command_rejects_missing_file(capsys):
    assert run_cli("fit", "--csv", "/nonexistent/sweep.csv") == 2


def test_fit_rejects_a_csv_that_is_not_text_with_one_line_naming_it(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    csv.write_bytes(b"\x80" + noise.CSV_HEADER.encode() + b"\n")
    assert run_cli("fit", "--csv", str(csv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{csv}: 'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"]


def test_config_and_csv_files_are_read_as_utf8_under_a_c_locale(tmp_path, fresh_python):
    """Python reads the locale when it starts, so only a fresh process shows which encoding open() falls back to."""
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    config, csv = tmp_path / "run.cfg", tmp_path / "bad.csv"
    config.write_bytes(f"# fünf\neps = 1e-3\nn-runs = 2\nout = {tmp_path / 'sweep.csv'}\n".encode())
    csv.write_bytes(b"\xc3" + noise.CSV_HEADER.encode() + b"\n")
    swept = fresh_python("-m", "spinlogic", "sweep", "--config", str(config), **c_locale)
    assert swept.returncode == 0, swept.stderr
    fitted = fresh_python("-m", "spinlogic", "fit", "--csv", str(csv), **c_locale)
    assert fitted.returncode == 2
    assert fitted.stderr.splitlines() == [f"{csv}: 'utf-8' codec can't decode byte 0xc3 in position 0: invalid "
                                          "continuation byte"]


def test_fit_prints_what_the_release_sweep_printed_after_its_header(tmp_path, capsys, monkeypatch):
    """fit on the CSV a sweep wrote gives the sweep's own report: every line after seed, modes and "wrote"."""
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    csv = tmp_path / "release.csv"
    assert run_cli("sweep", "--out", str(csv)) == 0
    swept = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in swept[:3]] == ["seed", "modes:", "wrote"]
    assert run_cli("fit", "--csv", str(csv)) == 0
    refit = capsys.readouterr().out.splitlines()
    assert refit == swept[3:]
    assert [json.loads(line)["channel"] for line in refit if line.startswith("{")] == ["P", "Q"]
