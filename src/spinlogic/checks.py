"""The analytic invariants a release must satisfy, all within one tolerance.

registry() lists them in the order `spinlogic verify` runs them, and report()
runs them and returns the lines `verify` prints, which the acceptance tests
assert. Each entry measures one error (the largest deviation from its closed
form), and run() passes it when that error is at most TOLERANCE; a NaN error
fails. A check may also return a note on what it measured, which report()
prints before its verdict. The flip checks can be fed a corrupted second pulse
duration, the fault injector behind `verify --corrupt-t2`.

The rule: every closed form here is exact, so a check's error is rounding
alone, in entries of order one after at most 15 pulses on at most 64
amplitudes. One tolerance serves all 13: TOLERANCE = 1e-13, about 900 units of
u = 2**-53. The largest error measured is 8.95e-16 (swap-gate, 8.1 u),
112 times below it, under the default, Prescott, Haswell and Sandybridge
OpenBLAS kernels and with numpy's AVX512 loops off. A fault just above it is
caught: t2 off by a relative 1e-13 gives errors of 2.1e-13 and 2.2e-13 in the
two flip checks.

A registry evolves the four logical products through the swap once, when the
first of its three swap checks (swap-gate, swap-phase, full-space-oracle) runs,
and those checks read that one evolution. A new registry measures again, and a
sequence or kernel replaced before its first swap check runs is what they see.
"""
from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

import numpy as np

from . import chain, encoding, gates
from .pulses import Pulse, PulseSequence

TOLERANCE = 1e-13
Measure = Callable[[], float | tuple[float, str]]  # a check: its error, or its error and a note


def run(measure: Measure) -> tuple[float, bool, str]:
    """A check's error, whether it is within TOLERANCE, and its note ("" if none); overflow shows as inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = measure()
    error, note = result if isinstance(result, tuple) else (result, "")
    return error, error <= TOLERANCE, note


def _worst(errors) -> float:
    """The largest error, NaN if any is NaN (the builtin max drops a NaN that comes second)."""
    return float(np.max(list(errors)))


def _wrapped(angle: float) -> float:
    """Distance of an angle from 0 modulo 2*pi."""
    wrapped = angle % (2 * math.pi)
    return min(wrapped, 2 * math.pi - wrapped)


def _gate_error(sequence: PulseSequence, frame: encoding.LogicalFrame, gate: str, theta: float | None = None) -> float:
    """Largest deviation of the sequence's logical matrix from the gate's closed form."""
    reference = gates.analytic_reference(gate, theta)
    got = gates.logical_unitary(sequence, frame, n_columns=reference.shape[0])
    return float(np.abs(got - reference).max())


def _swapped_products() -> np.ndarray:
    """The pair frame's four logical products after the swap sequence, one column each."""
    frame = encoding.pair_frame()
    return gates.simulate(gates.swap_sequence(), frame.vectors[:, :4], frame.subspace)


def _with_t2(seq: PulseSequence, corrupt_t2: float | None) -> PulseSequence:
    """The sequence with its second duration overridden (fault injection)."""
    if corrupt_t2 is None:
        return seq
    first, second, *rest = seq.pulses
    return PulseSequence(seq.name, (first, Pulse(second.bond, corrupt_t2, second.tag), *rest))


def frame_orthonormality() -> float:
    frames = (encoding.qubit_frame("A"), encoding.qubit_frame("B"), encoding.pair_frame())
    return _worst(np.abs(f.vectors.conj().T @ f.vectors - np.eye(f.n_columns)).max() for f in frames)


def auxiliary_decoupling() -> float:
    return _worst(np.abs(encoding.auxiliary_coupling(block)).max() for block in ("A", "B"))


def logical_projection() -> float:
    frame = encoding.qubit_frame("A")
    inner_ref = np.array([[0, -gates.OMEGA / 2], [-gates.OMEGA / 2, gates.DELTA]])
    outer_ref = np.diag([1.5 * gates.DELTA, -0.5 * gates.DELTA])
    return _worst([
        np.abs(encoding.project_bond(0, frame) - inner_ref).max(),
        np.abs(encoding.project_bond(1, frame) - outer_ref).max(),
    ])


def flip_annihilation(*sequences: PulseSequence) -> float:
    """|c_0| after each bare flip from |0_L>: both timing solutions empty the first slot."""
    frame = encoding.qubit_frame("A")
    start = encoding.encode(np.array([1.0, 0.0]), frame)
    return _worst(abs(encoding.decode(gates.simulate(s, start, frame.subspace), frame)[0][0]) for s in sequences)


def flip_phase_condition() -> float:
    lhs = gates.PHI1 + gates.DELTA * gates.T4 / 2
    rhs = gates.PHI2 - 3 * gates.DELTA * gates.T4 / 2
    return _wrapped(lhs - rhs)


def hadamard_gate() -> float:
    return _worst(_gate_error(gates.hadamard_sequence(q), encoding.qubit_frame(q), "H") for q in ("A", "B"))


def phase_gate() -> float:
    """The phase gate on the nine angles k*pi/4, including 0, pi and 2*pi, evolved as one (dim, 2, 9) chunk."""
    frame = encoding.qubit_frame("A")
    thetas = [k * math.pi / 4 for k in range(9)]
    pulses = [pulse for theta in thetas for pulse in gates.phase_sequence(theta)]  # one pulse each, on one bond
    block = frame.vectors[:, :2]
    evolved = np.repeat(block[:, :, None], len(thetas), axis=2)
    chain.evolve((pulses[0].bond,), [[pulse.duration for pulse in pulses]], evolved, frame.subspace)
    logical = np.einsum("ia,ibj->jab", block.conj(), evolved)  # angle j's logical matrix
    reference = np.array([gates.analytic_reference("P", theta) for theta in thetas])
    return float(np.abs(logical - reference).max())


def spin_swap_phase() -> float:
    u = np.eye(4, dtype=np.complex128)
    chain.evolve((0,), (0.5,), u, chain.full_space(2))
    # the two spins trade places: patterns 01 and 10 exchange, 00 and 11 stay
    expect = cmath.exp(1j * gates.SPIN_SWAP_PHASE) * np.eye(4)[[0, 2, 1, 3]]
    return float(np.abs(u - expect).max())


def cycle_permutation() -> float:
    sub = chain.enumerate_subspace(6, 2)
    phase = cmath.exp(1j * gates.CYCLE_PHASE)
    # column j evolves basis pattern j; all 15 go through the cycle as one block
    final = gates.simulate(gates.cycle_sequence(), np.eye(sub.dim, dtype=np.complex128), sub)
    expect = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    for j, pattern in enumerate(sub.states):
        shifted = ((pattern << 1) | (pattern >> 5)) & 0b111111
        expect[sub.index_of(shifted), j] = phase
    return float(np.abs(final - expect).max())


def swap_gate(swapped: np.ndarray) -> float:
    logical = encoding.pair_frame().vectors[:, :4].conj().T @ swapped
    return float(np.abs(logical - gates.analytic_reference("SWAP")).max())


def swap_phase(swapped: np.ndarray) -> tuple[float, str]:
    measured = float(np.angle(np.vdot(encoding.pair_frame().vectors[:, 0], swapped[:, 0])))
    note = f"measured overall swap phase {measured:.17g}, expected {gates.PAIR_SWAP_PHASE:.17g}"
    return _wrapped(measured - gates.PAIR_SWAP_PHASE), note


def full_space_oracle(swapped: np.ndarray) -> float:
    """The swap's 64-dim oracle against its sector evolution lifted to the full space.

    The lifted vector is zero off the sector, so leakage shows as amplitude,
    in the tolerance's units; the second term is the oracle's norm error.
    """
    frame = encoding.pair_frame()
    amplitudes = np.array([0.5, 0.5, 0.5, 0.5])
    psi0 = chain.embed_in_full_space(encoding.encode(amplitudes, frame), frame.subspace)
    in_full = chain.full_space_oracle(gates.swap_sequence(), psi0)
    expect = chain.embed_in_full_space(swapped @ amplitudes, frame.subspace)
    return _worst([np.abs(in_full - expect).max(), abs(1.0 - encoding.squared_norm(in_full))])


def registry(corrupt_t2: float | None = None) -> dict[str, Measure]:
    """Every check by name, in run order; corrupt_t2 overrides the flips' second duration."""
    swapped = functools.cache(_swapped_products)
    flip = _with_t2(gates.flip_sequence("A"), corrupt_t2)
    core2 = _with_t2(gates.flip_sequence_uncorrected("A", solution=2), corrupt_t2)
    core1 = gates.flip_sequence_uncorrected("A", solution=1)
    return {
        "frame-orthonormality": frame_orthonormality,
        "auxiliary-decoupling": auxiliary_decoupling,
        "logical-projection": logical_projection,
        "flip-annihilation": lambda: flip_annihilation(core2, core1),
        "flip-gate": lambda: _gate_error(flip, encoding.qubit_frame("A"), "F"),
        "flip-phase-condition": flip_phase_condition,
        "hadamard-gate": hadamard_gate,
        "phase-gate": phase_gate,
        "spin-swap-phase": spin_swap_phase,
        "cycle-permutation": cycle_permutation,
        "swap-gate": lambda: swap_gate(swapped()),
        "swap-phase": lambda: swap_phase(swapped()),
        "full-space-oracle": lambda: full_space_oracle(swapped()),
    }


def report(registry: dict[str, Measure], names: list[str] | None = None) -> tuple[list[str], int]:
    """Run the named checks (all of them by default) in order: the lines verify prints and the number that failed."""
    names = list(registry) if names is None else names
    if unknown := [name for name in names if name not in registry]:
        raise ValueError(f"unknown check {unknown[0]!r}; choose from: {', '.join(registry)}")
    lines, failures = [], 0
    for name in names:
        error, ok, note = run(registry[name])
        failures += 0 if ok else 1
        lines += [note] if note else []
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<22} max error {error:.3e}  (tol {TOLERANCE:.1e})")
    lines.append(f"{failures} of {len(names)} checks failed" if failures else f"all {len(names)} checks passed")
    return lines, failures
