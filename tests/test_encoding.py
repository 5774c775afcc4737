import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import chain, encoding, gates, noise
from spinlogic.pulses import Pulse, PulseSequence

S2, S3, S6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)


logical_pairs = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: math.hypot(math.hypot(q[0], q[1]), math.hypot(q[2], q[3])) > 1e-3).map(
    lambda q: np.array([q[0] + 1j * q[1], q[2] + 1j * q[3]])
    / math.hypot(math.hypot(q[0], q[1]), math.hypot(q[2], q[3]))
)


def test_qubit_frame_coefficients_are_exact(frame_a):
    sub = frame_a.subspace
    vec = frame_a.vectors
    assert vec[sub.index_of(0b010), 0] == 1 / S2
    assert vec[sub.index_of(0b100), 0] == -1 / S2
    assert vec[sub.index_of(0b001), 0] == 0
    assert vec[sub.index_of(0b001), 1] == math.sqrt(2 / 3)
    assert vec[sub.index_of(0b010), 1] == -1 / S6
    assert vec[sub.index_of(0b100), 1] == -1 / S6
    assert np.allclose(vec[:, 2], 1 / S3)


def test_second_block_frame_uses_shifted_patterns(frame_b):
    sub = frame_b.subspace
    vec = frame_b.vectors
    assert sub.n_spins == 6 and sub.n_excitations == 1
    assert vec[sub.index_of(0b010000), 0] == 1 / S2
    assert vec[sub.index_of(0b100000), 0] == -1 / S2
    assert vec[sub.index_of(0b001000), 1] == math.sqrt(2 / 3)
    # nothing on the first block's spins
    assert np.abs(vec[[sub.index_of(1), sub.index_of(2), sub.index_of(4)], :]).max() == 0.0


def test_frames_are_orthonormal(frame_a, frame_b, frame_ab):
    for frame in (frame_a, frame_b, frame_ab):
        gram = frame.vectors.conj().T @ frame.vectors
        assert np.abs(gram - np.eye(frame.n_columns)).max() < 1e-14


def test_frames_are_shared_read_only_instances():
    for build in (lambda: encoding.qubit_frame("A"), lambda: encoding.qubit_frame("B"), encoding.pair_frame):
        frame = build()
        assert build() is frame
        with pytest.raises(ValueError, match="read-only"):
            frame.vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            frame.vectors[:, 0] *= 2
    assert encoding.qubit_frame() is encoding.qubit_frame("A")
    assert noise._lab()[0] is encoding.pair_frame()


def test_pair_frame_order_and_labels(frame_ab):
    assert frame_ab.labels[:9] == ("00", "01", "10", "11", "0a", "1a", "a0", "a1", "aa")
    assert frame_ab.labels[9:] == ("000011", "000101", "000110", "011000", "101000", "110000")
    # column 1 is block B in 0 and block A in 1
    sub = frame_ab.subspace
    assert frame_ab.vectors[sub.index_of(0b010001), 1] == pytest.approx(1 / S2 * math.sqrt(2 / 3))
    # double-excitation columns are single patterns
    assert frame_ab.vectors[sub.index_of(0b000011), 9] == 1.0
    assert frame_ab.vectors[sub.index_of(0b110000), 14] == 1.0


def test_encode_produces_the_expected_physical_state(frame_a):
    psi = encoding.encode(np.array([1.0, 0.0]), frame_a)
    sub = frame_a.subspace
    assert psi[sub.index_of(0b010)] == pytest.approx(1 / S2)
    assert psi[sub.index_of(0b100)] == pytest.approx(-1 / S2)
    assert abs(psi[sub.index_of(0b001)]) == 0.0


def test_encode_rejects_unnormalized_input(frame_a):
    with pytest.raises(ValueError, match="not normalized"):
        encoding.encode(np.array([1.0, 1.0]), frame_a)
    with pytest.raises(ValueError, match="not normalized"):
        encoding.encode(np.array([1.0, np.nan]), frame_a)
    with pytest.raises(ValueError, match="amplitudes"):
        encoding.encode(np.ones((2, 2)), frame_a)


def test_decode_reports_auxiliary_amplitude(frame_a):
    aux = frame_a.vectors[:, 2]
    amps, leakage = encoding.decode(aux, frame_a)
    assert abs(amps[2] - 1.0) < 1e-14
    assert abs(amps[0]) < 1e-14 and abs(amps[1]) < 1e-14
    assert leakage < 1e-14
    # against the logical pair alone, everything is leakage
    amps2, leakage2 = encoding.decode(aux, frame_a, n_columns=2)
    assert np.abs(amps2).max() < 1e-14
    assert leakage2 == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(logical_pairs)
def test_decode_inverts_encode(amps):
    frame = encoding.qubit_frame("A")
    back, leakage = encoding.decode(encoding.encode(amps, frame), frame, n_columns=2)
    assert np.abs(back - amps).max() < 1e-12
    assert leakage < 1e-12


def test_leakage_is_clamped_at_zero(frame_a):
    # a state marginally longer than 1 must not produce negative leakage
    psi = encoding.encode(np.array([1.0, 0.0]), frame_a) * (1 + 1e-13)
    _, leakage = encoding.decode(psi, frame_a)
    assert leakage == 0.0


def test_logical_projections_of_the_two_bonds(frame_a):
    inner = encoding.project_bond(0, frame_a)
    outer = encoding.project_bond(1, frame_a)
    inner_ref = np.array([[0, -gates.OMEGA / 2], [-gates.OMEGA / 2, gates.DELTA]])
    outer_ref = np.diag([1.5 * gates.DELTA, -0.5 * gates.DELTA])
    assert np.abs(inner - inner_ref).max() < 1e-13
    assert np.abs(outer - outer_ref).max() < 1e-13
    assert gates.DELTA == pytest.approx(-math.pi)
    assert gates.OMEGA == pytest.approx(-S3 * math.pi)
    assert math.hypot(gates.DELTA, gates.OMEGA) == pytest.approx(gates.LAMBDA)


def test_known_logical_matrix_elements(frame_a):
    # <0|V_inner|1> = -W/2 = sqrt(3)*pi/2 and <0|V_outer|0> = 3D/2 = -3*pi/2
    inner = encoding.project_bond(0, frame_a)
    outer = encoding.project_bond(1, frame_a)
    assert inner[0, 1] == pytest.approx(S3 * math.pi / 2, abs=1e-13)
    assert outer[0, 0] == pytest.approx(-1.5 * math.pi, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0, max_value=4, allow_nan=False)),
        min_size=1,
        max_size=10,
    ),
    logical_pairs,
)
def test_block_pulses_never_populate_the_auxiliary_state(raw, amps):
    frame = encoding.qubit_frame("A")
    seq = PulseSequence("random_block", tuple(Pulse(1 if inner else 0, t) for inner, t in raw))
    psi = encoding.encode(amps, frame)
    out = gates.simulate(seq, psi, frame.subspace)
    aux_amp = frame.vectors[:, 2].conj() @ out
    assert abs(aux_amp) < 1e-12


def test_single_excitation_weight_is_conserved_under_block_pulses(frame_a):
    psi = encoding.encode(np.array([0.6, 0.8]), frame_a)
    seq = gates.flip_sequence("A")
    full = chain.full_space_oracle(seq, chain.embed_in_full_space(psi, frame_a.subspace))
    assert abs(encoding.squared_norm(full) - 1.0) < 1e-12
    assert np.abs(np.delete(full, frame_a.subspace.states)).max() < 1e-12
