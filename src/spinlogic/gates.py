"""Exchange-pulse gate catalog for the three-spin logical encoding.

Every gate is a short product of bond pulses V_k(t) with exactly solved
durations. On the logical pair (C_0, C_1) of one block the two bonds project
to 2x2 generators

    inner bond:  [[0, -W/2], [-W/2, D]]      outer bond:  diag(3D/2, -D/2)

with D = -pi, W = -sqrt(3)*pi and Rabi splitting L = 2*pi, which is where all
the arctan timings below come from. Sequences are stored in execution order;
product_string() renders them rightmost-first.

Catalog (times in exchange periods, phases in radians):
  flip        V0(t1) V1(t2) V0(t3) V1(t4), global phase FLIP_PHASE
  hadamard    V1(t5) V0(t6) V1(t5), prefactor exp(i*pi/2)/sqrt(2)
  phase(th)   single outer-bond pulse of duration 1 - th/(2*pi)
  cycle       V4..V0 at t=1/2 each: shifts every spin k to k+1 (mod 6)
  swap        cycle applied three times: exchanges the two logical qubits
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import chain, encoding
from .pulses import Pulse, PulseSequence

SQRT5 = math.sqrt(5)

# logical-pair generator constants for one block
DELTA = -math.pi
OMEGA = -math.sqrt(3) * math.pi
LAMBDA = 2 * math.pi

# flip timings, second (adopted) solution of the population-transfer condition
T1 = 1 - math.atan(3 - SQRT5) / math.pi
T2 = 0.75
T3 = 1 - math.atan(3 + SQRT5) / math.pi
# phase-correction pulse appended to equalize the two transfer phases
T4 = 1 - math.atan(SQRT5 / 2) / (2 * math.pi)
# first solution: also a perfect flip, different phases, kept for cross-checks
T1_ALT = math.atan(3 - SQRT5) / math.pi
T2_ALT = 0.25
T3_ALT = math.atan(3 + SQRT5) / math.pi

# hadamard timings
T5 = 0.75 + math.atan(1 / math.sqrt(2)) / (2 * math.pi)
T6 = math.atan(math.sqrt(2)) / math.pi

# slot phases after the bare three-pulse flip (second solution)
PHI1 = 0.5 * (0.75 * math.pi + math.atan(2) - math.atan(SQRT5 / 2))
PHI2 = 0.5 * (0.75 * math.pi + math.atan(2) + math.atan(SQRT5 / 2))
# global phase of the phase-corrected four-pulse flip
FLIP_PHASE = -math.pi / 8 + 0.5 * math.atan(2) - 0.25 * math.atan(SQRT5 / 2)

HADAMARD_PHASE = math.pi / 2
SPIN_SWAP_PHASE = -math.pi / 4  # phase of V_k(1/2) on every two-spin state
CYCLE_PHASE = -5 * math.pi / 4  # phase of the five-pulse cyclic shift
PAIR_SWAP_PHASE = math.pi / 4  # overall phase of the fifteen-pulse qubit swap

SWAP_PERMUTATION = (0, 2, 1, 3)  # logical product i maps to SWAP_PERMUTATION[i]


def phase_gate_duration(theta: float) -> float:
    """Outer-bond pulse length implementing a relative phase theta in [0, 2*pi]."""
    if not 0 <= theta <= 2 * math.pi:
        raise ValueError(f"theta must lie in [0, 2*pi], got {theta}")
    return 1 - theta / (2 * math.pi)


def phase_gate_phase(theta: float) -> float:
    """Global phase of the phase gate: 3*pi/2 - 3*theta/4."""
    return 1.5 * math.pi - 0.75 * theta


def flip_sequence(qubit: str = "A") -> PulseSequence:
    """Phase-corrected logical flip: the bare flip, then T4 on the outer bond, giving exp(i*FLIP_PHASE) * X."""
    _, outer = encoding.block_bonds(qubit)
    return PulseSequence(f"flip_{qubit}", flip_sequence_uncorrected(qubit).pulses + (Pulse(outer, T4, "t4"),))


def flip_sequence_uncorrected(qubit: str = "A", solution: int = 2) -> PulseSequence:
    """Bare three-pulse flip; slot phases differ between the two timing solutions."""
    inner, outer = encoding.block_bonds(qubit)
    if solution == 2:
        times, suffix = (T1, T2, T3), ""
    elif solution == 1:
        times, suffix = (T1_ALT, T2_ALT, T3_ALT), "_alt"
    else:
        raise ValueError(f"solution must be 1 or 2, got {solution}")
    return PulseSequence(
        f"flip_core_{qubit}{suffix}",
        (
            Pulse(inner, times[0], "t1" + suffix),
            Pulse(outer, times[1], "t2" + suffix),
            Pulse(inner, times[2], "t3" + suffix),
        ),
    )


def hadamard_sequence(qubit: str = "A") -> PulseSequence:
    inner, outer = encoding.block_bonds(qubit)
    return PulseSequence(
        f"hadamard_{qubit}",
        (Pulse(outer, T5, "t5"), Pulse(inner, T6, "t6"), Pulse(outer, T5, "t5")),
    )


def phase_sequence(theta: float, qubit: str = "A") -> PulseSequence:
    _, outer = encoding.block_bonds(qubit)
    duration = phase_gate_duration(theta)
    return PulseSequence(
        f"phase_{qubit}",
        (Pulse(outer, duration, f"t(theta={theta:.17g})"),),
    )


def cycle_sequence() -> PulseSequence:
    """Five half-period swaps shifting every spin k to k+1 (mod 6)."""
    return PulseSequence("cycle", tuple(Pulse(k, 0.5, "1/2") for k in (4, 3, 2, 1, 0)))


def swap_sequence() -> PulseSequence:
    """Logical qubit swap: three cyclic shifts, fifteen pulses."""
    pulses = cycle_sequence().pulses * 3
    return PulseSequence("swap", pulses)


def simulate(sequence: PulseSequence, state: np.ndarray, subspace: chain.Subspace) -> np.ndarray:
    """Run a pulse sequence on a copy of a sector vector (or column block of vectors), by chain.evolve's closed form."""
    psi = np.array(state, dtype=np.complex128)
    chain.evolve([pulse.bond for pulse in sequence], [pulse.duration for pulse in sequence], psi, subspace)
    return psi


def logical_unitary(sequence: PulseSequence, frame: encoding.LogicalFrame, n_columns: int = 2) -> np.ndarray:
    """Matrix of the sequence compressed onto the leading frame columns."""
    block = frame.vectors[:, :n_columns]
    evolved = simulate(sequence, block, frame.subspace)
    return block.conj().T @ evolved


def global_phase(gate: str, theta: float | None = None) -> float:
    """Closed-form global phase of a cataloged gate: F, H, P(theta) or SWAP."""
    if gate == "P":
        if theta is None:
            raise ValueError("P needs theta")
        return phase_gate_phase(theta)
    phases = {"F": FLIP_PHASE, "H": HADAMARD_PHASE, "SWAP": PAIR_SWAP_PHASE}
    if gate not in phases:
        raise ValueError(f"unknown gate {gate!r}; expected F, H, P or SWAP")
    return phases[gate]


def analytic_reference(gate: str, theta: float | None = None) -> np.ndarray:
    """Closed-form logical matrix for a cataloged gate.

    F, H and P(theta) are 2x2 on one block's (C_0, C_1); SWAP is 4x4 on the
    logical products in B-major order.
    """
    phase = cmath.exp(1j * global_phase(gate, theta))
    if gate == "F":
        return phase * np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if gate == "H":
        return phase / math.sqrt(2) * np.array([[1, 1], [1, -1]], dtype=np.complex128)
    if gate == "P":
        return phase * np.diag([1, cmath.exp(1j * theta)])
    matrix = np.zeros((4, 4), dtype=np.complex128)
    for source, target in enumerate(SWAP_PERMUTATION):
        matrix[target, source] = phase
    return matrix
