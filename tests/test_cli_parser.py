"""main() builds its argument parser once per process and reuses it.

These tests make consecutive in-process calls, so state left on the shared
parser by one call would show in the next.
"""
import contextlib
import io

import pytest

from spinlogic import cli

SUBCOMMANDS = ["verify", "simulate", "sweep", "fit", "export-schedule"]


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_sweep_flags_do_not_leak_into_the_next_call(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    common = ["sweep", "--eps", "1e-3,2e-3", "--n-runs", "3"]
    assert cli.main([*common, "--seed", "99", "--p-mode", "independent", "--q-mode", "common",
                     "--out", str(tmp_path / "flags.csv")]) == 0
    printed = capsys.readouterr().out
    assert "seed = 99 (source: flag)" in printed
    assert "modes: P channel independent, Q channel common" in printed

    assert cli.main([*common, "--out", str(tmp_path / "defaults.csv")]) == 0
    printed = capsys.readouterr().out
    assert "seed = 123456789 (source: default)" in printed
    assert "modes: P channel common, Q channel independent" in printed


def test_an_argparse_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--check"])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err

    assert cli.main(["verify", "--check", "swap-phase"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 1 checks passed"


def _help_text(parse_args, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        parse_args(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [[], *([name] for name in SUBCOMMANDS)], ids=["top", *SUBCOMMANDS])
def test_help_matches_a_fresh_parser(argv):
    fresh = cli.build_parser.__wrapped__()
    expected = _help_text(fresh.parse_args, [*argv, "--help"])
    for _ in range(2):
        assert _help_text(cli.main, [*argv, "--help"]) == expected


def test_a_handler_patched_after_the_first_call_runs(capsys, monkeypatch):
    assert cli.main(["verify", "--check", "flip-phase-condition"]) == 0
    seen = []

    def fake(args):
        seen.append(args.csv)
        return 7

    monkeypatch.setattr(cli, "cmd_fit", fake)
    assert cli.main(["fit", "--csv", "points.csv"]) == 7
    assert seen == ["points.csv"]
