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
import sys

import numpy as np

from . import chain, encoding, gates, noise
from .pulses import Pulse, PulseSequence

SEED_ENV_VAR = "SPINLOGIC_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


# ---------------------------------------------------------------- verify

def _check_frame_orthonormality() -> tuple[float, float]:
    worst = 0.0
    for frame in (encoding.qubit_frame("A"), encoding.qubit_frame("B"), encoding.pair_frame()):
        gram = frame.vectors.conj().T @ frame.vectors
        worst = max(worst, float(np.abs(gram - np.eye(frame.n_columns)).max()))
    return worst, 1e-12


def _check_auxiliary_decoupling() -> tuple[float, float]:
    worst = max(
        float(np.abs(encoding.auxiliary_coupling("A")).max()),
        float(np.abs(encoding.auxiliary_coupling("B")).max()),
    )
    return worst, 1e-13


def _check_logical_projection() -> tuple[float, float]:
    frame = encoding.qubit_frame("A")
    inner_ref = np.array([[0, -gates.OMEGA / 2], [-gates.OMEGA / 2, gates.DELTA]])
    outer_ref = np.diag([1.5 * gates.DELTA, -0.5 * gates.DELTA])
    worst = max(
        float(np.abs(encoding.project_bond(0, frame) - inner_ref).max()),
        float(np.abs(encoding.project_bond(1, frame) - outer_ref).max()),
    )
    return worst, 1e-13


def _with_t2(seq: PulseSequence, corrupt_t2: float | None) -> PulseSequence:
    """The sequence with its second duration overridden (fault injection)."""
    if corrupt_t2 is None:
        return seq
    return PulseSequence(seq.name, tuple(
        Pulse(p.bond, corrupt_t2, p.tag) if j == 1 else p for j, p in enumerate(seq.pulses)
    ))


def _check_flip_annihilation(core2: PulseSequence, core1: PulseSequence) -> tuple[float, float]:
    frame = encoding.qubit_frame("A")
    worst = 0.0
    for seq in (core2, core1):
        final = gates.simulate(seq, encoding.encode(np.array([1.0, 0.0]), frame), frame.subspace)
        amps, _ = encoding.decode(final, frame)
        worst = max(worst, abs(amps[0]))
    return worst, 1e-13


def _check_flip_gate(flip: PulseSequence) -> tuple[float, float]:
    frame = encoding.qubit_frame("A")
    got = gates.logical_unitary(flip, frame)
    return float(np.abs(got - gates.analytic_reference("F")).max()), 1e-12


def _check_flip_phase_condition() -> tuple[float, float]:
    lhs = gates.PHI1 + gates.DELTA * gates.T4 / 2
    rhs = gates.PHI2 - 3 * gates.DELTA * gates.T4 / 2
    wrapped = (lhs - rhs) % (2 * math.pi)
    return min(wrapped, 2 * math.pi - wrapped), 1e-13


def _check_hadamard_gate() -> tuple[float, float]:
    worst = 0.0
    for qubit in ("A", "B"):
        frame = encoding.qubit_frame(qubit)
        got = gates.logical_unitary(gates.hadamard_sequence(qubit), frame)
        worst = max(worst, float(np.abs(got - gates.analytic_reference("H")).max()))
    return worst, 1e-12


def _check_phase_gate() -> tuple[float, float]:
    frame = encoding.qubit_frame("A")
    worst = 0.0
    for k in range(9):
        theta = k * math.pi / 4
        got = gates.logical_unitary(gates.phase_sequence(theta), frame)
        worst = max(worst, float(np.abs(got - gates.analytic_reference("P", theta)).max()))
    return worst, 1e-12


def _check_spin_swap_phase() -> tuple[float, float]:
    sub = chain.full_space(2)
    u = np.column_stack(
        [chain.apply_bond_pulse(0, 0.5, e, sub) for e in np.eye(4, dtype=np.complex128)]
    )
    expect = np.zeros((4, 4), dtype=np.complex128)
    phase = cmath.exp(1j * gates.SPIN_SWAP_PHASE)
    for pattern in range(4):
        swapped = ((pattern & 1) << 1) | ((pattern >> 1) & 1)
        expect[swapped, pattern] = phase
    return float(np.abs(u - expect).max()), 1e-12


def _check_cycle_permutation() -> tuple[float, float]:
    sub = chain.enumerate_subspace(6, 2)
    phase = cmath.exp(1j * gates.CYCLE_PHASE)
    # column j evolves basis pattern j; all 15 go through the cycle as one block
    final = gates.simulate(gates.cycle_sequence(), np.eye(sub.dim, dtype=np.complex128), sub)
    expect = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    for j, pattern in enumerate(sub.states):
        shifted = ((pattern << 1) | (pattern >> 5)) & 0b111111
        expect[sub.index_of(shifted), j] = phase
    return float(np.abs(final - expect).max()), 1e-12


def _check_swap_gate() -> tuple[float, float]:
    frame = encoding.pair_frame()
    got = gates.logical_unitary(gates.swap_sequence(), frame, n_columns=4)
    return float(np.abs(got - gates.analytic_reference("SWAP")).max()), 1e-12


def _check_swap_phase() -> tuple[float, float]:
    frame = encoding.pair_frame()
    final = gates.simulate(gates.swap_sequence(), frame.vectors[:, 0], frame.subspace)
    measured = float(np.angle(np.vdot(frame.vectors[:, 0], final)))
    print(f"measured overall swap phase {measured:.17g}, expected {gates.PAIR_SWAP_PHASE:.17g}")
    wrapped = (measured - gates.PAIR_SWAP_PHASE) % (2 * math.pi)
    return min(wrapped, 2 * math.pi - wrapped), 1e-12


def _check_full_space_oracle() -> tuple[float, float]:
    frame = encoding.pair_frame()
    psi0 = encoding.encode(np.array([0.5, 0.5, 0.5, 0.5]), frame)
    in_sector = gates.simulate(gates.swap_sequence(), psi0, frame.subspace)
    in_full = chain.full_space_oracle(gates.swap_sequence(), chain.embed_in_full_space(psi0, frame.subspace))
    leakage = 1.0 - chain.sector_weight(in_full, frame.subspace)
    agreement = float(np.abs(chain.restrict_to_sector(in_full, frame.subspace) - in_sector).max())
    return max(agreement, abs(leakage)), 1e-12


def _build_checks(corrupt_t2: float | None):
    flip = _with_t2(gates.flip_sequence("A"), corrupt_t2)
    core2 = _with_t2(gates.flip_sequence_uncorrected("A", solution=2), corrupt_t2)
    core1 = gates.flip_sequence_uncorrected("A", solution=1)
    return [
        ("frame-orthonormality", _check_frame_orthonormality),
        ("auxiliary-decoupling", _check_auxiliary_decoupling),
        ("logical-projection", _check_logical_projection),
        ("flip-annihilation", lambda: _check_flip_annihilation(core2, core1)),
        ("flip-gate", lambda: _check_flip_gate(flip)),
        ("flip-phase-condition", _check_flip_phase_condition),
        ("hadamard-gate", _check_hadamard_gate),
        ("phase-gate", _check_phase_gate),
        ("spin-swap-phase", _check_spin_swap_phase),
        ("cycle-permutation", _check_cycle_permutation),
        ("swap-gate", _check_swap_gate),
        ("swap-phase", _check_swap_phase),
        ("full-space-oracle", _check_full_space_oracle),
    ]


def cmd_verify(args) -> int:
    if args.corrupt_t2 is not None and not math.isfinite(args.corrupt_t2):
        print(f"--corrupt-t2 must be a finite duration, got {args.corrupt_t2!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    checks = _build_checks(args.corrupt_t2)
    names = [name for name, _ in checks]
    if args.check is not None:
        if args.check not in names:
            print(f"unknown check {args.check!r}; choose from: {', '.join(names)}", file=sys.stderr)
            return EXIT_BAD_INPUT
        checks = [(n, f) for n, f in checks if n == args.check]
    failures = 0
    for name, func in checks:
        error, tol = func()
        ok = error <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<22} max error {error:.3e}  (tol {tol:.1e})")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _sequence(args) -> tuple[PulseSequence, float | None]:
    """The cataloged sequence that --gate and --qubit name, and --theta in radians."""
    theta = args.theta
    if args.gate == "P":
        if theta is None:
            raise ValueError("gate P needs --theta")
        if args.degrees:
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
    amps = np.array(amps, dtype=np.complex128)
    norm = encoding.squared_norm(amps)
    if abs(norm - 1.0) > encoding.NORMALIZATION_ATOL:
        raise ValueError(f"amplitudes not normalized: sum |c|^2 = {norm:.12g}")
    return amps / math.sqrt(norm)


def cmd_simulate(args) -> int:
    try:
        sequence, theta = _sequence(args)
        if args.gate == "SWAP":
            frame = encoding.pair_frame()
            amps = _parse_amplitudes(args.state, 4)
        else:
            frame = encoding.qubit_frame(args.qubit)
            amps = _parse_amplitudes(args.state, 2)
        psi = gates.simulate(sequence, encoding.encode(amps, frame), frame.subspace)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_BAD_INPUT

    n_logical = 4 if args.gate == "SWAP" else 2
    out, leakage = encoding.decode(psi, frame, n_logical)
    print(f"gate {args.gate} on qubit {args.qubit if args.gate != 'SWAP' else 'AB'}")
    print(f"sequence: {sequence.product_string()}")
    unit = "deg" if args.degrees else "rad"
    for label, amp in zip(frame.labels, out):
        phase = math.degrees(cmath.phase(amp)) if args.degrees else cmath.phase(amp)
        print(f"  |{label}>  {amp.real:+.12f}{amp.imag:+.12f}i   |amp| {abs(amp):.12f}  phase {phase:+.12f} {unit}")
    print(f"leakage off the logical span: {leakage:.3e}")
    if args.gate == "F":
        print(f"analytic global phase: {gates.FLIP_PHASE:.17g} rad")
    elif args.gate == "H":
        print(f"analytic global phase: {gates.HADAMARD_PHASE:.17g} rad")
    elif args.gate == "P":
        print(f"analytic global phase: {gates.phase_gate_phase(theta):.17g} rad")
    else:
        print(f"analytic global phase: {gates.PAIR_SWAP_PHASE:.17g} rad")
    return EXIT_OK


# ---------------------------------------------------------------- sweep / fit

def _read_config(path: str) -> dict[str, str]:
    table = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            table[key.strip().replace("-", "_")] = value.strip()
    return table


_SWEEP_CONFIG_KEYS = {
    "eps", "eps_min", "eps_max", "eps_points", "n_runs", "seed",
    "p_mode", "q_mode", "out",
}


def _resolve_sweep_settings(args) -> tuple[dict, str]:
    """Merge defaults, environment, config file and flags (rightmost wins)."""
    settings = {
        "eps": None,
        "eps_min": 1e-4,
        "eps_max": 1e-2,
        "eps_points": 8,
        "n_runs": noise.DEFAULT_N_RUNS,
        "seed": noise.DEFAULT_SEED,
        "p_mode": "common",
        "q_mode": "independent",
        "out": "sweep.csv",
    }
    seed_source = "default"
    if os.environ.get(SEED_ENV_VAR):
        settings["seed"] = int(os.environ[SEED_ENV_VAR])
        seed_source = f"env {SEED_ENV_VAR}"
    if args.config:
        table = _read_config(args.config)
        unknown = set(table) - _SWEEP_CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in table.items():
            if key == "eps":
                settings["eps"] = value
            elif key in ("eps_min", "eps_max"):
                settings[key] = float(value)
            elif key in ("eps_points", "n_runs", "seed"):
                settings[key] = int(value)
            else:
                settings[key] = value
        if "seed" in table:
            seed_source = f"config {args.config}"
    for key in _SWEEP_CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
            if key == "seed":
                seed_source = "flag"
    return settings, seed_source


def _fit_and_report(points: list[noise.SweepPoint]) -> int:
    """Print both fits; assert the acceptance bands only when every point has full statistics."""
    n_runs = min(p.n_runs for p in points)
    check_bands = n_runs >= noise.DEFAULT_N_RUNS
    if not check_bands:
        print(f"low-statistics run (n_runs = {n_runs} < {noise.DEFAULT_N_RUNS}): fits reported, acceptance bands not asserted")
    status = EXIT_OK
    bands = {
        "P": (noise.EXPONENT_BAND_P, noise.AMPLITUDE_BAND_P),
        "Q": (noise.EXPONENT_BAND_Q, noise.AMPLITUDE_BAND_Q),
    }
    for channel in ("P", "Q"):
        try:
            fit = noise.fit_power_law(points, channel)
        except ValueError as err:
            print(f"fit refused for channel {channel}: {err}")
            if check_bands:
                status = EXIT_VERIFY_FAILED
            continue
        print(fit.json())
        if check_bands:
            (b_lo, b_hi), (a_lo, a_hi) = bands[channel]
            exp_ok = b_lo <= fit.exponent <= b_hi
            amp_ok = a_lo <= fit.amplitude <= a_hi
            verdict = "PASS" if (exp_ok and amp_ok) else "FAIL"
            print(
                f"{verdict}  channel {channel}: exponent {fit.exponent:.4f} in [{b_lo}, {b_hi}]: "
                f"{'yes' if exp_ok else 'NO'}; amplitude {fit.amplitude:.4g} in [{a_lo:.4g}, {a_hi:.4g}]: "
                f"{'yes' if amp_ok else 'NO'}"
            )
            if verdict == "FAIL":
                status = EXIT_VERIFY_FAILED
    return status


def cmd_sweep(args) -> int:
    try:
        settings, seed_source = _resolve_sweep_settings(args)
        if settings["eps"] is not None:
            grid = [float(x) for x in str(settings["eps"]).split(",")]
        else:
            for key in ("eps_min", "eps_max"):  # before np.geomspace, which warns on inf and nan
                if not (math.isfinite(settings[key]) and settings[key] > 0):
                    raise ValueError(f"{key.replace('_', '-')} must be finite and positive, got {settings[key]!r}")
            grid = [float(e) for e in np.geomspace(settings["eps_min"], settings["eps_max"],
                                                   int(settings["eps_points"]))]
        fresh = not os.path.lexists(settings["out"])
        with open(settings["out"], "a"):  # an unwritable --out fails here, before the trials run
            pass
        try:
            points = noise.sweep(grid, n_runs=int(settings["n_runs"]), seed=int(settings["seed"]),
                                 p_mode=settings["p_mode"], q_mode=settings["q_mode"])
        except ValueError:
            if fresh:  # a refused run leaves no file behind
                os.remove(settings["out"])
            raise
        noise.write_csv(points, settings["out"])
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"seed = {settings['seed']} (source: {seed_source})")
    print(f"modes: P channel {settings['p_mode']}, Q channel {settings['q_mode']}")
    print(f"wrote {len(points)} points x {settings['n_runs']} runs to {settings['out']}")
    return _fit_and_report(points)


def cmd_fit(args) -> int:
    try:
        points = noise.read_csv(args.csv)
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_BAD_INPUT
    if not points:
        print("CSV holds no sweep points", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _fit_and_report(points)


# ---------------------------------------------------------------- schedules

def cmd_export_schedule(args) -> int:
    try:
        seq, _ = _sequence(args)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(seq.schedule_text())
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.out:
        print(f"wrote {len(seq)} pulses to {args.out}")
    else:
        sys.stdout.write(seq.schedule_text())
    return EXIT_OK


# ---------------------------------------------------------------- entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(prog="spinlogic", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run analytic invariant checks")
    p_verify.add_argument("--check", help="run a single named check")
    p_verify.add_argument("--corrupt-t2", type=float, default=None,
                          help="debug: override the flip sequence's second duration")

    p_sim = sub.add_parser("simulate", help="apply a cataloged gate to logical amplitudes")
    p_sim.add_argument("--gate", required=True, choices=["F", "H", "P", "SWAP"])
    p_sim.add_argument("--qubit", default="A", choices=["A", "B"])
    p_sim.add_argument("--theta", type=float, help="phase-gate angle (radians unless --degrees)")
    p_sim.add_argument("--degrees", action="store_true", help="read theta and print phases in degrees")
    p_sim.add_argument("--state", nargs="+", required=True, metavar="RE,IM",
                       help="logical amplitudes: two pairs, or four for SWAP")

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo error sweep with power-law fits")
    p_sweep.add_argument("--eps", help="comma-separated noise strengths (overrides the log grid)")
    p_sweep.add_argument("--eps-min", type=float, dest="eps_min")
    p_sweep.add_argument("--eps-max", type=float, dest="eps_max")
    p_sweep.add_argument("--eps-points", type=int, dest="eps_points")
    p_sweep.add_argument("--n-runs", type=int, dest="n_runs")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--p-mode", choices=noise.NOISE_MODES, dest="p_mode")
    p_sweep.add_argument("--q-mode", choices=noise.NOISE_MODES, dest="q_mode")
    p_sweep.add_argument("--out", help="CSV output path (default sweep.csv)")
    p_sweep.add_argument("--config", help="key=value file mirroring these flags; flags override it")

    p_fit = sub.add_parser("fit", help="re-fit an existing sweep CSV")
    p_fit.add_argument("--csv", required=True)

    p_exp = sub.add_parser("export-schedule", help="write a gate's pulse schedule")
    p_exp.add_argument("--gate", required=True, choices=["F", "FPH", "H", "P", "SWAP", "CYCLE"])
    p_exp.add_argument("--qubit", default="A", choices=["A", "B"])
    p_exp.add_argument("--theta", type=float)
    p_exp.add_argument("--degrees", action="store_true")
    p_exp.add_argument("--solution", type=int, default=2, choices=[1, 2],
                       help="timing solution for the bare three-pulse flip")
    p_exp.add_argument("--out", help="output file (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a handler replaced after the parser was built still runs
    return globals()[f"cmd_{args.command.replace('-', '_')}"](args)


if __name__ == "__main__":
    sys.exit(main())
