import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import chain, encoding, gates
from spinlogic.pulses import Pulse, PulseSequence

PI = math.pi


def wrapped(delta: float) -> float:
    d = delta % (2 * PI)
    return min(d, 2 * PI - d)


def inner_pulse_oracle(t: float, c0: complex, c1: complex) -> tuple[complex, complex]:
    """Closed-form amplitudes after one inner-bond pulse on the logical pair.

    Independent of the simulator: straight from the 2x2 Rabi solution of
    [[0, -W/2], [-W/2, D]] with splitting L = sqrt(D^2 + W^2).
    """
    d, w, lam = gates.DELTA, gates.OMEGA, gates.LAMBDA
    cos, sin = math.cos(lam * t / 2), math.sin(lam * t / 2)
    phase = cmath.exp(-0.5j * d * t)
    new0 = (c0 * (cos + 1j * (d / lam) * sin) + 1j * c1 * (w / lam) * sin) * phase
    new1 = (1j * c0 * (w / lam) * sin + c1 * (cos - 1j * (d / lam) * sin)) * phase
    return new0, new1


# ---------------------------------------------------------------- constants


def test_timing_constants_match_their_closed_forms():
    s5 = math.sqrt(5)
    assert gates.T1 == 1 - math.atan(3 - s5) / PI
    assert gates.T2 == 0.75
    assert gates.T3 == 1 - math.atan(3 + s5) / PI
    assert gates.T4 == 1 - math.atan(s5 / 2) / (2 * PI)
    assert gates.T5 == 0.75 + math.atan(1 / math.sqrt(2)) / (2 * PI)
    assert gates.T6 == math.atan(math.sqrt(2)) / PI
    assert gates.T1_ALT == math.atan(3 - s5) / PI
    assert gates.T3_ALT == math.atan(3 + s5) / PI


def test_phase_constants_match_their_closed_forms():
    s5 = math.sqrt(5)
    assert gates.PHI1 == pytest.approx(0.5 * (0.75 * PI + math.atan(2) - math.atan(s5 / 2)), abs=1e-15)
    assert gates.PHI2 == pytest.approx(0.5 * (0.75 * PI + math.atan(2) + math.atan(s5 / 2)), abs=1e-15)
    assert gates.PHI2 - gates.PHI1 == pytest.approx(math.atan(s5 / 2), abs=1e-15)
    assert gates.FLIP_PHASE == pytest.approx(-PI / 8 + 0.5 * math.atan(2) - 0.25 * math.atan(s5 / 2), abs=1e-15)


def test_catalog_durations_are_canonical():
    sequences = [
        gates.flip_sequence("A"),
        gates.flip_sequence_uncorrected("A", 1),
        gates.flip_sequence_uncorrected("A", 2),
        gates.hadamard_sequence("B"),
        gates.phase_sequence(0.0),
        gates.phase_sequence(2 * PI),
        gates.cycle_sequence(),
        gates.swap_sequence(),
    ]
    for seq in sequences:
        for pulse in seq:
            assert 0.0 <= pulse.duration < 4.0


def test_phase_correction_condition_holds_modulo_a_period():
    lhs = gates.PHI1 + gates.DELTA * gates.T4 / 2
    rhs = gates.PHI2 - 3 * gates.DELTA * gates.T4 / 2
    assert wrapped(lhs - rhs) < 1e-13
    # the raw difference is one full period: t4 was pushed up to stay positive
    assert lhs - rhs == pytest.approx(-2 * PI, abs=1e-13)
    assert lhs == pytest.approx(gates.FLIP_PHASE, abs=1e-13)


# ---------------------------------------------------------------- sequences


def test_sequence_shapes_and_bonds():
    flip = gates.flip_sequence("A")
    assert [p.bond for p in flip] == [0, 1, 0, 1]
    assert [p.duration for p in flip] == [gates.T1, gates.T2, gates.T3, gates.T4]
    flip_b = gates.flip_sequence("B")
    assert [p.bond for p in flip_b] == [3, 4, 3, 4]
    had = gates.hadamard_sequence("A")
    assert [p.bond for p in had] == [1, 0, 1]
    assert [p.duration for p in had] == [gates.T5, gates.T6, gates.T5]
    cycle = gates.cycle_sequence()
    assert [p.bond for p in cycle] == [4, 3, 2, 1, 0]
    assert all(p.duration == 0.5 for p in cycle)
    swap = gates.swap_sequence()
    assert len(swap) == 15
    assert [p.bond for p in swap] == [4, 3, 2, 1, 0] * 3
    assert all(p.duration == 0.5 for p in swap)


def test_sequence_product_renders_rightmost_first():
    assert gates.flip_sequence("A").product_string() == "V1(t4) V0(t3) V1(t2) V0(t1)"


def test_unknown_qubit_and_solution_are_rejected():
    with pytest.raises(ValueError):
        gates.flip_sequence("C")
    with pytest.raises(ValueError):
        gates.flip_sequence_uncorrected("A", solution=3)
    with pytest.raises(ValueError):
        gates.phase_sequence(-0.1)
    with pytest.raises(ValueError):
        gates.phase_sequence(2 * PI + 0.1)


# ---------------------------------------------------------------- single pulses


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0, max_value=4, allow_nan=False))
def test_single_inner_pulse_matches_the_rabi_oracle(t):
    frame = encoding.qubit_frame("A")
    seq = PulseSequence("one_pulse", (Pulse(0, t),))
    psi = gates.simulate(seq, encoding.encode(np.array([1.0, 0.0]), frame), frame.subspace)
    amps, _ = encoding.decode(psi, frame, n_columns=2)
    ref0, ref1 = inner_pulse_oracle(t, 1.0, 0.0)
    assert abs(amps[0] - ref0) < 1e-12
    assert abs(amps[1] - ref1) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0, max_value=4, allow_nan=False))
def test_single_outer_pulse_is_diagonal(t):
    frame = encoding.qubit_frame("A")
    seq = PulseSequence("one_pulse", (Pulse(1, t),))
    start = np.array([0.6, 0.8j])
    psi = gates.simulate(seq, encoding.encode(start, frame), frame.subspace)
    amps, _ = encoding.decode(psi, frame, n_columns=2)
    assert abs(amps[0] - start[0] * cmath.exp(-1.5j * gates.DELTA * t)) < 1e-12
    assert abs(amps[1] - start[1] * cmath.exp(0.5j * gates.DELTA * t)) < 1e-12


# ---------------------------------------------------------------- gates


def test_flip_twice_is_a_global_phase(frame_a):
    u = gates.logical_unitary(gates.flip_sequence("A"), frame_a)
    twice = u @ u
    assert np.abs(twice - cmath.exp(2j * gates.FLIP_PHASE) * np.eye(2)).max() < 1e-12


def test_bare_flip_annihilates_the_first_slot_for_both_solutions(frame_a):
    for solution in (1, 2):
        seq = gates.flip_sequence_uncorrected("A", solution)
        psi = gates.simulate(seq, encoding.encode(np.array([1.0, 0.0]), frame_a), frame_a.subspace)
        amps, _ = encoding.decode(psi, frame_a, n_columns=2)
        assert abs(amps[0]) < 1e-13
        assert abs(abs(amps[1]) - 1.0) < 1e-13


def test_bare_flip_slot_phases_for_the_adopted_solution(frame_a):
    u = gates.logical_unitary(gates.flip_sequence_uncorrected("A", 2), frame_a)
    expect = np.array([[0, cmath.exp(1j * gates.PHI2)], [cmath.exp(1j * gates.PHI1), 0]])
    assert np.abs(u - expect).max() < 1e-12


def test_hadamard_twice_is_minus_identity(frame_a):
    u = gates.logical_unitary(gates.hadamard_sequence("A"), frame_a)
    assert np.abs(u @ u + np.eye(2)).max() < 1e-12


def test_hadamard_splits_a_basis_state_evenly(frame_a):
    psi = gates.simulate(
        gates.hadamard_sequence("A"), encoding.encode(np.array([1.0, 0.0]), frame_a), frame_a.subspace
    )
    amps, leak = encoding.decode(psi, frame_a, n_columns=2)
    assert abs(abs(amps[0]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(amps[1]) - 1 / math.sqrt(2)) < 1e-12
    assert leak < 1e-12


def test_phase_gate_limits(frame_a):
    # theta = 2*pi is a zero-length pulse: exactly the identity
    seq = gates.phase_sequence(2 * PI)
    assert seq.pulses[0].duration == 0.0
    got = gates.logical_unitary(seq, frame_a)
    assert np.abs(got - np.eye(2)).max() < 1e-15
    # theta = 0 is a full period: a pure global phase of 3*pi/2
    got0 = gates.logical_unitary(gates.phase_sequence(0.0), frame_a)
    assert np.abs(got0 - cmath.exp(1.5j * PI) * np.eye(2)).max() < 1e-12


def test_second_block_gates_match_the_first(frame_b):
    for name, build in [
        ("F", gates.flip_sequence),
        ("H", gates.hadamard_sequence),
    ]:
        got = gates.logical_unitary(build("B"), frame_b)
        assert np.abs(got - gates.analytic_reference(name)).max() < 1e-12
    got = gates.logical_unitary(gates.phase_sequence(1.1, "B"), frame_b)
    assert np.abs(got - gates.analytic_reference("P", 1.1)).max() < 1e-12


def test_six_cycles_return_with_quarter_phase(frame_ab):
    sub = frame_ab.subspace
    start = np.zeros(sub.dim, dtype=np.complex128)
    start[sub.index_of(0b000101)] = 1.0
    psi = start
    for _ in range(6):
        psi = gates.simulate(gates.cycle_sequence(), psi, sub)
    assert abs(np.vdot(start, psi) - cmath.exp(0.5j * PI)) < 1e-12


def test_swap_twice_is_a_global_phase(frame_ab):
    u = gates.logical_unitary(gates.swap_sequence(), frame_ab, n_columns=4)
    assert np.abs(u @ u - 1j * np.eye(4)).max() < 1e-12


def test_swap_exchanges_unequal_block_states(frame_ab):
    amps = np.array([0.0, 1.0, 0.0, 0.0])  # block B in 0, block A in 1
    psi = gates.simulate(gates.swap_sequence(), encoding.encode(amps, frame_ab), frame_ab.subspace)
    out, leak = encoding.decode(psi, frame_ab, n_columns=4)
    assert abs(out[2] - cmath.exp(1j * PI / 4)) < 1e-12
    assert leak < 1e-12


# ---------------------------------------------------------------- cross-checks


def test_every_cataloged_gate_agrees_with_the_full_space_oracle(frame_a, frame_b, frame_ab):
    cases = [
        (gates.flip_sequence("A"), frame_a),
        (gates.flip_sequence_uncorrected("A", 1), frame_a),
        (gates.hadamard_sequence("A"), frame_a),
        (gates.phase_sequence(0.7), frame_a),
        (gates.flip_sequence("B"), frame_b),
        (gates.hadamard_sequence("B"), frame_b),
        (gates.swap_sequence(), frame_ab),
        (gates.cycle_sequence(), frame_ab),
    ]
    rng = np.random.default_rng(11)
    for seq, frame in cases:
        n_logical = 4 if frame.n_columns == 15 else 2
        amps = rng.normal(size=n_logical) + 1j * rng.normal(size=n_logical)
        amps /= np.linalg.norm(amps)
        psi0 = encoding.encode(amps, frame)
        in_sector = gates.simulate(seq, psi0, frame.subspace)
        full = chain.full_space_oracle(seq, chain.embed_in_full_space(psi0, frame.subspace))
        # zero off the sector, so the elementwise bound also bounds leakage as amplitude
        assert np.abs(full - chain.embed_in_full_space(in_sector, frame.subspace)).max() < 1e-12, seq.name
        assert abs(encoding.squared_norm(full) - 1.0) < 1e-12, seq.name


def test_simulate_validates_dimensions_and_bonds(frame_a):
    with pytest.raises(ValueError, match="dimension"):
        gates.simulate(gates.flip_sequence("A"), np.ones(4), frame_a.subspace)
    with pytest.raises(ValueError, match="bond"):
        gates.simulate(gates.flip_sequence("B"), np.ones(3), frame_a.subspace)


def test_analytic_reference_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown gate"):
        gates.analytic_reference("X")
    with pytest.raises(ValueError, match="theta"):
        gates.analytic_reference("P")


# ---------------------------------------------------------------- schedules


def test_schedule_text_round_trips_durations_exactly():
    for seq in (gates.flip_sequence("A"), gates.swap_sequence(), gates.phase_sequence(1.23456789)):
        lines = seq.schedule_text().strip().split("\n")
        assert len(lines) == len(seq)
        for line, pulse in zip(lines, seq):
            bond, tag, decimal = line.split(" ")
            assert int(bond) == pulse.bond
            assert tag == pulse.tag
            assert float(decimal) == pulse.duration
