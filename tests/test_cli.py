import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spinlogic import chain, cli, gates, noise
from spinlogic.pulses import Pulse, PulseSequence


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def run_spinlogic(*argv, **env) -> subprocess.CompletedProcess:
    """`python -m spinlogic` in a fresh process, so numpy warnings show on its stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **env}
    return subprocess.run([sys.executable, "-m", "spinlogic", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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


def test_verify_single_check_prints_the_measured_swap_phase(capsys):
    assert run_cli("verify", "--check", "swap-phase") == 0
    out = capsys.readouterr().out
    assert f"{math.pi / 4:.17g}" in out
    assert "measured overall swap phase" in out


def test_verify_rejects_unknown_check(capsys):
    assert run_cli("verify", "--check", "nonsense") == 2


def test_verify_fails_with_corrupted_timing(capsys):
    assert run_cli("verify", "--corrupt-t2", "0.7") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "flip" in out


@pytest.mark.parametrize(
    "broken",
    [
        lambda pulses: pulses[:2] + (Pulse(pulses[2].bond, 0.4, pulses[2].tag),) + pulses[3:],
        lambda pulses: pulses[:-1],
    ],
    ids=["one-pulse-at-0.4", "one-pulse-dropped"],
)
def test_batched_cycle_check_fails_on_a_broken_cycle(capsys, monkeypatch, broken):
    pulses = gates.cycle_sequence().pulses
    monkeypatch.setattr(gates, "cycle_sequence", lambda: PulseSequence("cycle", broken(pulses)))
    error, tol = cli._check_cycle_permutation()
    assert error > tol
    # the same error as fifteen one-pattern evolutions, so no column goes unchecked
    sub = chain.enumerate_subspace(6, 2)
    one_by_one = 0.0
    for j, pattern in enumerate(sub.states):
        final = gates.simulate(gates.cycle_sequence(), np.eye(sub.dim)[:, j], sub)
        final[sub.index_of(((pattern << 1) | (pattern >> 5)) & 0b111111)] -= cmath.exp(1j * gates.CYCLE_PHASE)
        one_by_one = max(one_by_one, float(np.abs(final).max()))
    assert error == pytest.approx(one_by_one, rel=1e-12)
    assert run_cli("verify", "--check", "cycle-permutation") == 1
    assert capsys.readouterr().out.startswith("FAIL  cycle-permutation")


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
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--gate", "X", "--state", "1,0", "0,0")
    assert err.value.code == 2


@pytest.mark.parametrize("state", [("1,0", "nan,0"), ("nan,nan", "0,0"), ("1,inf", "0,0")])
def test_simulate_rejects_non_finite_amplitudes(capsys, state):
    assert run_cli("simulate", "--gate", "F", "--state", *state) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


def test_simulate_rejects_overflowing_amplitudes_with_one_line():
    # squaring 1e200 overflows; numpy's warning must not reach stderr
    done = run_spinlogic("simulate", "--gate", "F", "--state", "1e200,0", "0,0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "amplitudes not normalized: sum |c|^2 = inf\n"


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


def test_sweep_output_is_byte_identical_across_workers(tmp_path, lone_trial_sweep):
    """The CSV the serial loop writes is the one any split of trials over workers would give."""
    out = tmp_path / "a.csv"
    assert run_cli("sweep", "--eps", "1e-3,3e-3", "--n-runs", "24", "--seed", "7", "--out", str(out)) == 0
    assert out.read_text() == noise.csv_text(lone_trial_sweep([1e-3, 3e-3], 24, 7))


def test_degenerate_sweep_refuses_the_fit(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    assert run_cli("sweep", "--eps", "0", "--n-runs", "10", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "fit refused" in printed


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
        (["--eps", "1e308"], "epsilon 1e+308 overflows the trials: pulse duration must be finite, got inf"),
        (["--eps-max", "inf"], "eps-max must be finite and positive, got inf"),
        (["--eps-max", "nan"], "eps-max must be finite and positive, got nan"),
        (["--eps-min", "0"], "eps-min must be finite and positive, got 0.0"),
    ],
    ids=["nan-phases", "infinite-draw", "eps-max-inf", "eps-max-nan", "eps-min-zero"],
)
def test_sweep_rejects_an_unusable_epsilon_with_one_line(tmp_path, argv, message):
    done = run_spinlogic("sweep", *argv, "--n-runs", "20", "--out", str(tmp_path / "sweep.csv"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == message + "\n"


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


@pytest.mark.parametrize("source", ["flag", "env"])
def test_sweep_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, source):
    def no_trials(*args):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(noise, "_run_trial", no_trials)
    argv = ["sweep", "--eps", "1e-3", "--n-runs", "10", "--out", str(tmp_path / "sweep.csv")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["seed must be nonnegative, got -1"]


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    for key in ("volume", "workers"):
        config.write_text(f"{key} = 2\n")
        assert run_cli("sweep", "--config", str(config)) == 2
        assert capsys.readouterr().err.splitlines() == [f"unknown config keys: {key}"]


def test_the_removed_workers_flag_is_bad_input(capsys):
    with pytest.raises(SystemExit, match="^2$"):
        run_cli("sweep", "--workers", "2")
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_fit_command_refits_a_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    points = noise.sweep([1e-4, 1e-3, 1e-2], n_runs=60, seed=3)
    noise.write_csv(points, out)
    assert run_cli("fit", "--csv", str(out)) == 0
    printed = capsys.readouterr().out
    assert '"channel": "P"' in printed
    assert '"channel": "Q"' in printed
    assert "low-statistics" in printed


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
    "row", ["0.001,0,0,0,0,0,0,0,0", "0.001,10,0,0,0,0,0,0,11", "-0.001,10,0,0,0,0,0,0,0", "nan,10,0,0,0,0,0,0,0"]
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
