"""Command-line front end.

Commands:
  verify           run the analytic invariant checks (optionally one by name)
  simulate         apply a cataloged gate to given logical amplitudes
  sweep            Monte-Carlo error sweep, CSV output plus power-law fits
  fit              re-fit an existing sweep CSV
  export-schedule  write a gate's pulse schedule, one "bond tag duration" line per pulse

Exit status: 0 all checks/runs succeeded, 1 verification failure, 2 invalid input.
A sweep seed may come from --seed, a config file, or the SPINLOGIC_SEED
environment variable (in that order of precedence); the source is echoed.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import re
import sys

import numpy as np

from . import checks, encoding, gates, noise
from .pulses import PulseSequence

SEED_ENV_VAR = "SPINLOGIC_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
# simulate prints no phase for an amplitude below this modulus: its angle would be that of round-off residue
PHASE_MODULUS_FLOOR = 1e-12


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if args.corrupt_t2 is not None and not math.isfinite(args.corrupt_t2):
        raise ValueError(f"--corrupt-t2 must be a finite duration, got {args.corrupt_t2!r}")
    lines, failures = checks.report(checks.registry(args.corrupt_t2), None if args.check is None else [args.check])
    print("\n".join(lines))
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------- simulate

def _sequence(args) -> tuple[PulseSequence, float | None]:
    """The cataloged sequence that --gate and --qubit name, and --theta in radians."""
    theta = args.theta
    if args.gate == "P":
        if theta is None:
            raise ValueError("gate P needs --theta")
        if args.degrees:
            if not 0 <= theta <= 360:  # gates checks radians; name the unit as typed
                raise ValueError(f"--theta must lie in [0, 360] degrees, got {theta}")
            theta = math.radians(theta)
        return gates.phase_sequence(theta, args.qubit), theta
    if args.gate == "F":
        return gates.flip_sequence(args.qubit), theta
    if args.gate == "FPH":
        return gates.flip_sequence_uncorrected(args.qubit, solution=args.solution), theta
    if args.gate == "H":
        return gates.hadamard_sequence(args.qubit), theta
    if args.gate == "CYCLE":
        return gates.cycle_sequence(), theta
    return gates.swap_sequence(), theta


def _parse_amplitudes(raw: list[str], expected: int) -> np.ndarray:
    """Exactly `expected` finite re,im pairs; encode checks the normalization."""
    if len(raw) != expected:
        raise ValueError(f"expected {expected} amplitudes (re,im pairs), got {len(raw)}")
    amps = []
    for chunk in raw:
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad amplitude {chunk!r}; format is re,im")
        amp = complex(float(parts[0]), float(parts[1]))
        if not cmath.isfinite(amp):
            raise ValueError(f"amplitude {chunk!r} is not finite")
        amps.append(amp)
    return np.array(amps, dtype=np.complex128)


def cmd_simulate(args) -> int:
    if args.gate == "SWAP":
        frame, n_logical, target = encoding.pair_frame(), 4, "AB"
    else:
        frame, n_logical, target = encoding.qubit_frame(args.qubit), 2, args.qubit
    sequence, theta = _sequence(args)
    amps = _parse_amplitudes(args.state, n_logical)
    psi = gates.simulate(sequence, encoding.encode(amps, frame), frame.subspace)
    out, leakage = encoding.decode(psi, frame, n_logical)
    print(f"gate {args.gate} on qubit {target}")
    print(f"sequence: {sequence.product_string()}")
    unit = "deg" if args.degrees else "rad"
    for label, amp in zip(frame.labels, out):
        if abs(amp) < PHASE_MODULUS_FLOOR:
            phase = "undefined"
        else:
            angle = math.degrees(cmath.phase(amp)) if args.degrees else cmath.phase(amp)
            phase = f"{angle:+.12f} {unit}"
        print(f"  |{label}>  {amp.real:+.12f}{amp.imag:+.12f}i   |amp| {abs(amp):.12f}  phase {phase}")
    print(f"leakage off the logical span: {leakage:.3e}")
    print(f"analytic global phase: {gates.global_phase(args.gate, theta):.17g} rad")
    return EXIT_OK


# ---------------------------------------------------------------- sweep / fit

def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:  # a ValueError whose message names no file
        raise ValueError(f"{path}: {err}") from None
    table, first_lines = {}, {}
    for lineno, line in enumerate(lines, start=1):
        # as configparser's inline comments: "#" opens one at the start of a line or after whitespace, so a
        # value such as out = res#1.csv keeps its "#"
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
        key, value = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in table:  # n-runs and n_runs name one setting
            raise ValueError(f"{path}:{lineno}: {key.replace('_', '-')} is set twice, first on line {first_lines[key]}")
        table[key], first_lines[key] = value.strip(), lineno
    return table


def _grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


_MODES = " or ".join(noise.NOISE_MODES)
# every sweep setting: the converter of its text (flag, config file or environment), its default, its help
_SWEEP_SETTINGS = {
    "eps": (_grid, None, "comma-separated noise strengths (overrides the log grid); a grid that starts with a "
            "minus sign takes the --eps=-0,1e-3 form"),
    "eps_min": (float, noise.DEFAULT_EPS_GRID[0], "smallest noise strength of the log grid"),
    "eps_max": (float, noise.DEFAULT_EPS_GRID[-1], "largest noise strength of the log grid"),
    "eps_points": (int, len(noise.DEFAULT_EPS_GRID), "number of noise strengths in the log grid"),
    "n_runs": (int, noise.DEFAULT_N_RUNS, "Monte-Carlo trials per noise strength"),
    "seed": (int, noise.DEFAULT_SEED, f"master seed, from this flag, else the config file, else {SEED_ENV_VAR}"),
    "p_mode": (str, noise.DEFAULT_P_MODE, f"P-channel noise, {_MODES}"),
    "q_mode": (str, noise.DEFAULT_Q_MODE, f"Q-channel noise, {_MODES}"),
    "out": (str, "sweep.csv", "CSV output path"),
}


def _help(key: str) -> str:
    _, default, text = _SWEEP_SETTINGS[key]
    return text if default is None else f"{text} (default {default})"


def _convert_setting(key: str, text: str, source: str):
    try:
        return _SWEEP_SETTINGS[key][0](text)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def _resolve_sweep_settings(args) -> tuple[dict, str]:
    """Merge defaults, environment, config file and flags (rightmost wins)."""
    settings = {key: default for key, (_, default, _) in _SWEEP_SETTINGS.items()}
    seed_source = "default"
    if os.environ.get(SEED_ENV_VAR):
        settings["seed"] = _convert_setting("seed", os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
        seed_source = f"env {SEED_ENV_VAR}"
    if args.config:
        table = _read_config(args.config)
        unknown = set(table) - set(_SWEEP_SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in table.items():
            settings[key] = _convert_setting(key, value, f"{args.config}: {key.replace('_', '-')}")
        if "seed" in table:
            seed_source = f"config {args.config}"
    for key in _SWEEP_SETTINGS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = _convert_setting(key, flag, f"--{key.replace('_', '-')}")
            if key == "seed":
                seed_source = "flag"
    return settings, seed_source


def cmd_sweep(args) -> int:
    settings, seed_source = _resolve_sweep_settings(args)
    grid = settings["eps"]
    if grid is None:
        for key in ("eps_min", "eps_max"):  # before np.geomspace, which warns on inf and nan
            if not (math.isfinite(settings[key]) and settings[key] > 0):
                raise ValueError(f"{key.replace('_', '-')} must be finite and positive, got {settings[key]!r}")
        if settings["eps_points"] < 0:  # np.geomspace's own message names no setting
            raise ValueError(f"eps-points must be nonnegative, got {settings['eps_points']}")
        grid = [float(e) for e in np.geomspace(settings["eps_min"], settings["eps_max"], settings["eps_points"])]
    fresh = not os.path.lexists(settings["out"])
    with open(settings["out"], "a"):  # an unwritable --out fails here, before the trials run
        pass
    try:
        points = noise.sweep(grid, n_runs=settings["n_runs"], seed=settings["seed"],
                             p_mode=settings["p_mode"], q_mode=settings["q_mode"])
    except (ValueError, MemoryError):
        if fresh:  # a refused run leaves no file behind
            os.remove(settings["out"])
        raise
    noise.write_csv(points, settings["out"])
    print(f"seed = {settings['seed']} (source: {seed_source})")
    print(f"modes: P channel {settings['p_mode']}, Q channel {settings['q_mode']}")
    print(f"wrote {len(points)} points x {settings['n_runs']} runs to {settings['out']}")
    lines, holds = noise.report(points, settings["p_mode"], settings["q_mode"])
    print("\n".join(lines))
    return EXIT_OK if holds else EXIT_VERIFY_FAILED


def cmd_fit(args) -> int:
    points = noise.read_csv(args.csv)
    if not points:
        raise ValueError("CSV holds no sweep points")
    lines, holds = noise.report(points, args.p_mode, args.q_mode)
    print("\n".join(lines))
    return EXIT_OK if holds else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- schedules

def cmd_export_schedule(args) -> int:
    seq, _ = _sequence(args)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(seq.schedule_text())
        print(f"wrote {len(seq)} pulses to {args.out}")
    else:
        sys.stdout.write(seq.schedule_text())
    return EXIT_OK


# ---------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach main() as ValueError, so they print as one line."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call."""
    parser = _Parser(prog="spinlogic", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run analytic invariant checks")
    p_verify.add_argument("--check", help="run a single named check")
    p_verify.add_argument("--corrupt-t2", type=float, default=None,
                          help="debug: override the flip sequence's second duration")

    p_sim = sub.add_parser("simulate", help="apply a cataloged gate to logical amplitudes")
    p_sim.add_argument("--gate", required=True, choices=["F", "H", "P", "SWAP"])
    p_sim.add_argument("--qubit", default="A", choices=list(encoding.BLOCK_BONDS))
    p_sim.add_argument("--theta", type=float, help="phase-gate angle (radians unless --degrees)")
    p_sim.add_argument("--degrees", action="store_true", help="read theta and print phases in degrees")
    p_sim.add_argument("--state", nargs="+", required=True, metavar="RE,IM",
                       help="logical amplitudes: two pairs, or four for SWAP")

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo error sweep with power-law fits")
    for key in _SWEEP_SETTINGS:  # no type=: _resolve_sweep_settings converts the text
        p_sweep.add_argument(f"--{key.replace('_', '-')}", help=_help(key))
    p_sweep.add_argument("--config", help="key=value file mirroring these flags; flags override it")

    p_fit = sub.add_parser("fit", help="re-fit an existing sweep CSV")
    p_fit.add_argument("--csv", required=True)
    for key in ("p_mode", "q_mode"):  # the CSV records no modes, and the band verdict depends on them
        convert, default, _ = _SWEEP_SETTINGS[key]
        p_fit.add_argument(f"--{key.replace('_', '-')}", type=convert, default=default, help=_help(key))

    p_exp = sub.add_parser("export-schedule", help="write a gate's pulse schedule")
    p_exp.add_argument("--gate", required=True, choices=["F", "FPH", "H", "P", "SWAP", "CYCLE"])
    p_exp.add_argument("--qubit", default="A", choices=list(encoding.BLOCK_BONDS))
    p_exp.add_argument("--theta", type=float)
    p_exp.add_argument("--degrees", action="store_true")
    p_exp.add_argument("--solution", type=int, default=2, choices=[1, 2],
                       help="timing solution for the bare three-pulse flip")
    p_exp.add_argument("--out", help="output file (default stdout)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so a handler replaced after the parser was built still runs
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (ValueError, OSError, MemoryError) as err:  # MemoryError: numpy refusing a grid or n_runs too large
        print(str(err), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
