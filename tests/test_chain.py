import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import chain, encoding, gates
from spinlogic.pulses import Pulse, PulseSequence

PI = math.pi


def test_sector_sizes_and_ordering():
    sub = chain.enumerate_subspace(6, 2)
    assert sub.dim == 15
    assert sub.states == tuple(sorted(sub.states))
    assert chain.enumerate_subspace(3, 1).states == (1, 2, 4)
    assert chain.enumerate_subspace(4, 0).states == (0,)
    assert chain.enumerate_subspace(5, 5).states == (0b11111,)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_sector_size_is_binomial(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert chain.enumerate_subspace(n, k).dim == math.comb(n, k)


def test_index_round_trip():
    sub = chain.enumerate_subspace(6, 2)
    for i, pattern in enumerate(sub.states):
        assert sub.index_of(pattern) == i
    with pytest.raises(ValueError, match="not in this subspace"):
        sub.index_of(0b111)


def test_bitstring_is_big_endian():
    sub = chain.enumerate_subspace(6, 2)
    assert sub.bitstring(0b000011) == "000011"
    assert sub.bitstring(0b100001) == "100001"


def test_subspace_bounds_are_enforced():
    with pytest.raises(ValueError):
        chain.enumerate_subspace(11, 2)
    with pytest.raises(ValueError):
        chain.enumerate_subspace(4, 5)
    with pytest.raises(ValueError):
        chain.enumerate_subspace(4, -1)
    with pytest.raises(ValueError):
        chain.full_space(9)


def test_two_spin_bond_matrix_block_structure():
    # basis 00, 01, 10, 11: equal neighbours sit at +pi/2, the mixed pair
    # couples with off-diagonal pi around -pi/2
    sub = chain.full_space(2)
    h = chain.build_bond_hamiltonian(0, sub)
    expect = np.array(
        [
            [PI / 2, 0, 0, 0],
            [0, -PI / 2, PI, 0],
            [0, PI, -PI / 2, 0],
            [0, 0, 0, PI / 2],
        ]
    )
    assert np.abs(h - expect).max() == 0.0


def test_bond_range_is_checked():
    sub = chain.enumerate_subspace(3, 1)
    with pytest.raises(ValueError, match="bond"):
        chain.build_bond_hamiltonian(2, sub)
    with pytest.raises(ValueError, match="bond"):
        chain.build_bond_hamiltonian(-1, sub)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_aligned_neighbours_only_collect_phase(t):
    # patterns with equal bits under the bond are eigenstates with value pi/2
    sub = chain.enumerate_subspace(6, 2)
    start = np.zeros(sub.dim, dtype=np.complex128)
    start[sub.index_of(0b000011)] = 1.0  # bits 0 and 1 set; bond 3 sees two zeros
    out = chain.apply_bond_pulse(3, t, start, sub)
    expect = start * np.exp(-0.5j * PI * t)
    assert np.abs(out - expect).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_antialigned_neighbours_mix_as_cos_sin(t):
    # on the mixed two-spin pair the pulse acts as
    #   exp(i*pi*t/2) * [cos(pi*t) 1 - i sin(pi*t) X]
    sub = chain.full_space(2)
    start = np.array([0, 1, 0, 0], dtype=np.complex128)
    out = chain.apply_bond_pulse(0, t, start, sub)
    stay = np.exp(0.5j * PI * t) * math.cos(PI * t)
    hop = -1j * np.exp(0.5j * PI * t) * math.sin(PI * t)
    assert abs(out[1] - stay) < 1e-12
    assert abs(out[2] - hop) < 1e-12
    assert abs(out[0]) == 0.0 and abs(out[3]) == 0.0


def test_half_period_pulse_swaps_spins():
    sub = chain.full_space(2)
    start = np.array([0, 1, 0, 0], dtype=np.complex128)
    out = chain.apply_bond_pulse(0, 0.5, start, sub)
    phase = np.exp(-0.25j * PI)
    assert abs(out[2] - phase) < 1e-13
    assert abs(out[1]) < 1e-13


def test_full_space_oracle_on_empty_sequence():
    psi = np.zeros(8, dtype=np.complex128)
    psi[5] = 1.0
    out = chain.full_space_oracle(PulseSequence("idle", ()), psi)
    assert np.abs(out - psi).max() == 0.0


def test_full_space_oracle_rejects_bad_lengths():
    with pytest.raises(ValueError, match="power of two"):
        chain.full_space_oracle(PulseSequence("idle", ()), np.ones(6))
    with pytest.raises(ValueError, match="power of two"):
        chain.full_space_oracle(PulseSequence("idle", ()), np.ones(0))
    with pytest.raises(ValueError):
        chain.full_space_oracle(PulseSequence("idle", ()), np.ones(512))


def test_oracle_cyclic_shift_moves_every_spin_up():
    # five half-period swaps from the top bond down shift spin k to k+1 (mod 6)
    seq = PulseSequence("cycle", tuple(Pulse(k, 0.5) for k in (4, 3, 2, 1, 0)))
    psi = np.zeros(64, dtype=np.complex128)
    psi[0b000011] = 1.0
    out = chain.full_space_oracle(seq, psi)
    phase = np.exp(-1.25j * PI)
    assert abs(out[0b000110] - phase) < 1e-12
    assert abs(np.abs(out).max() - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.floats(min_value=-2, max_value=2, allow_nan=False)),
        min_size=1,
        max_size=12,
    ),
)
def test_random_sequences_conserve_excitation_number(seed, raw_pulses):
    # the oracle keeps the norm and equals the sector evolution lifted to the
    # full space, zero off the sector; the two share no kernel code
    rng = np.random.default_rng(seed)
    seq = PulseSequence("random", tuple(Pulse(b, t) for b, t in raw_pulses))
    for k in range(7):
        sector = chain.enumerate_subspace(6, k)
        amps = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
        amps /= np.linalg.norm(amps)
        full = chain.full_space_oracle(seq, chain.embed_in_full_space(amps, sector))
        assert abs(encoding.squared_norm(full) - 1.0) < 1e-12
        assert np.abs(full - chain.embed_in_full_space(gates.simulate(seq, amps, sector), sector)).max() < 1e-12


def test_embed_puts_the_amplitudes_on_the_sector_patterns():
    sector = chain.enumerate_subspace(6, 2)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    amps /= np.linalg.norm(amps)
    full = chain.embed_in_full_space(amps, sector)
    assert full.shape == (64,)
    assert np.array_equal(full[list(sector.states)], amps)
    assert not np.delete(full, sector.states).any()


_SPACES = pytest.mark.parametrize("space", [(6, 2), (6, 3), (6, None)], ids=["sector-6-2", "sector-6-3", "full-64"])


def _space(n_spins, n_excitations):
    return chain.full_space(n_spins) if n_excitations is None else chain.enumerate_subspace(n_spins, n_excitations)


# The closed form against the eigenbasis: over seeds 0..199 of N(0, 1) + i N(0, 1)
# entries on each space and bond, at the five finite durations below, the largest
# entry difference was 4.7e-15 for apply_bond_pulse on vectors and (dim, 5) blocks,
# and 4.0e-15 for evolve on (dim, 5, 5) chunks. The bound is 1e-14.
SWAP_PULSE_BOUND = 1e-14


@pytest.mark.parametrize("space", [(2, 1), (3, 1), (6, 2), (6, 3), (6, None)],
                         ids=["sector-2-1", "sector-3-1", "sector-6-2", "sector-6-3", "full-64"])
def test_eigh_lists_every_bonds_singlets_first(space):
    # a fact of build_bond_hamiltonian: eigh gives every bond -3 pi/2 once per pair of states the swap exchanges,
    # then pi/2 (noise._run_chunk kicks those first rows of V^T psi on sector 6-2)
    n_spins, n_excitations = space
    sub = _space(*space)
    pairs = 2 ** (n_spins - 2) if n_excitations is None else math.comb(n_spins - 2, n_excitations - 1)
    for bond in range(n_spins - 1):
        values, _ = np.linalg.eigh(chain.build_bond_hamiltonian(bond, sub))
        np.testing.assert_allclose(values, [-1.5 * PI] * pairs + [PI / 2] * (sub.dim - pairs), rtol=1e-15)


@pytest.mark.parametrize("space", [(6, 2), (6, 3), (6, None)], ids=["sector-6-2", "sector-6-3", "full-64"])
def test_bond_generators_are_pi_swap_minus_half_pi(space):
    # the swap maps come from the patterns' bits; built apart from the generators, they must agree exactly
    n_spins, _ = space
    sub = _space(*space)
    identity = np.eye(sub.dim)
    assert len(sub.bond_swaps) == n_spins - 1
    for generator, swap in zip(sub.bond_generators, sub.bond_swaps):
        assert np.array_equal(swap[swap], np.arange(sub.dim))
        assert np.array_equal(generator, PI * identity[swap] - PI / 2 * identity)
        with pytest.raises(ValueError, match="read-only"):
            swap[0] = 0


@_SPACES
def test_bond_pairs_are_the_pairs_each_swap_exchanges(space):
    # a bond's singlet pairs: one excitation on its two spins and any comb(n - 2, e - 1) placements of the rest
    n_spins, n_excitations = space
    sub = _space(*space)
    m = 2 ** (n_spins - 2) if n_excitations is None else math.comb(n_spins - 2, n_excitations - 1)
    assert len(sub.bond_pairs) == n_spins - 1
    for swap, pairs in zip(sub.bond_swaps, sub.bond_pairs):
        lower, upper = pairs[:m], pairs[m:]
        assert len(pairs) == 2 * m and np.array_equal(swap[lower], upper) and (lower < upper).all()
        assert np.array_equal(np.sort(pairs), np.flatnonzero(swap != np.arange(sub.dim)))  # every moved state, once
        with pytest.raises(ValueError, match="read-only"):
            pairs[0] = 0


def test_the_common_phase_keeps_its_precision_over_a_thousand_pulses(textbook_pulse):
    # evolve applies the phase exp(-i pi t/2) of all pulses once, as the running product of each pulse's own factor.
    # Against 1000 textbook pulses per trial, durations in [3.9, 4), the largest entry difference was 5.7e-14 here
    # (at most 6.4e-14 over seeds 0..7), while one exp of the summed half angles gave 3.9e-12 (2.0e-12 to 6.4e-12)
    sub = chain.enumerate_subspace(6, 2)
    rng = np.random.default_rng(0)
    bonds = rng.integers(sub.n_spins - 1, size=1000).tolist()
    durations = rng.uniform(3.9, 4.0, size=(1000, 3))
    block = encoding.pair_frame().vectors[:, :4]
    chunk = np.repeat(block[:, :, None], 3, axis=2)
    chain.evolve(bonds, durations, chunk, sub)
    for j in range(3):
        expect = block
        for bond, t in zip(bonds, durations[:, j]):
            expect = textbook_pulse(bond, t, expect, sub)
        assert np.abs(chunk[..., j] - expect).max() <= 2e-13


@_SPACES
def test_evolve_matches_the_textbook_pulse(space, textbook_pulse):
    # chain.evolve, one pulse per trial of a (dim, 5, n) chunk, against the eigenbasis
    n_spins, _ = space
    sub = _space(*space)
    rng = np.random.default_rng(11)
    durations = np.array([-0.3, 0.5, 3.7, 0.0, -0.0, math.nan, math.inf, -math.inf])
    finite = np.isfinite(durations)
    chunk = rng.normal(size=(sub.dim, 5, len(durations))) + 1j * rng.normal(size=(sub.dim, 5, len(durations)))
    for bond in range(n_spins - 1):
        state = chunk.copy()
        with np.errstate(invalid="ignore"):  # fmod of an infinite duration
            chain.evolve((bond,), durations[None], state, sub)
        assert np.isnan(state[..., ~finite]).all()
        for k in np.flatnonzero(finite):
            assert np.abs(state[..., k] - textbook_pulse(bond, durations[k], chunk[..., k], sub)).max() <= SWAP_PULSE_BOUND
            alone = chunk[..., k:k + 1].copy()
            chain.evolve((bond,), durations[None, k:k + 1], alone, sub)
            assert np.array_equal(alone[..., 0], state[..., k])  # a trial pulsed alone gets the chunk's bits
    # a sequence runs its pulses in order, each with its own row of durations: the whole sequence in one call is one
    # call per pulse up to rounding, as the pulses' common phase is applied once per call. Over seeds 0..199 of these
    # draws on each of the three spaces (600 cases) the largest entry difference was 2.9e-15; the bound is 1e-14
    bonds = [n_spins - 2, 0, 1, 0, n_spins - 2]
    steps = rng.uniform(-2, 2, size=(len(bonds), 5))
    together, one_by_one = chunk[..., :5].copy(), chunk[..., :5].copy()
    chain.evolve(bonds, steps, together, sub)
    for bond, row in zip(bonds, steps):
        chain.evolve([bond], row[None], one_by_one, sub)
    assert np.abs(together - one_by_one).max() <= 1e-14
    # the pulse has period 4 and a duration enters as fmod(t, 4), exactly: a float
    # as large as 3e307 is a multiple of 4, so its pulse is the identity, not NaN
    periodic = np.repeat(chunk[..., :1], 4, axis=2)
    chain.evolve((n_spins - 2,), np.array([[3e307, -3e307, 4.5, 0.5]]), periodic, sub)
    assert np.array_equal(periodic[..., 0], chunk[..., 0]) and np.array_equal(periodic[..., 1], chunk[..., 0])
    assert np.array_equal(periodic[..., 2], periodic[..., 3])


@pytest.mark.parametrize("n_spins", [9, 10])
def test_pulses_on_sectors_past_the_full_space_cap_match_the_textbook_pulse(n_spins, textbook_pulse):
    # the swap maps do not go through full_space, so every sector enumerate_subspace admits can be pulsed
    sub = chain.enumerate_subspace(n_spins, 2)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    for bond in range(n_spins - 1):
        for t in (-0.3, 0.5, 3.7):
            got = chain.apply_bond_pulse(bond, t, vec, sub)
            assert np.abs(got - textbook_pulse(bond, t, vec, sub)).max() <= SWAP_PULSE_BOUND
    # each pulse is unitary, so the per-pulse differences add up at most
    sequence = PulseSequence("walk", tuple(Pulse(k, 0.5 + 0.1 * k) for k in range(n_spins - 1)))
    expect = vec
    for pulse in sequence:
        expect = textbook_pulse(pulse.bond, pulse.duration, expect, sub)
    assert np.abs(gates.simulate(sequence, vec, sub) - expect).max() <= (n_spins - 1) * SWAP_PULSE_BOUND
    with pytest.raises(ValueError, match="capped at 8 spins"):
        chain.full_space(n_spins)


def test_shared_structure_is_read_only():
    sub = chain.enumerate_subspace(6, 2)
    assert chain.bond_generator(2, sub) is sub.bond_generators[2]
    assert np.array_equal(sub.bond_generators[2], chain.build_bond_hamiltonian(2, sub))
    for shared in (*sub.bond_generators, *sub.bond_swaps, *sub.bond_pairs):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, ...] = 0
    with pytest.raises(ValueError, match="bond"):
        chain.bond_generator(-1, sub)


def test_a_bond_pulse_changes_nothing_on_its_subspace():
    # the kernel writes nothing shared, so callers in other threads cannot race it
    sub = chain.enumerate_subspace(6, 2)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    block = rng.normal(size=(sub.dim, 4)) + 1j * rng.normal(size=(sub.dim, 4))
    sub.bond_generators, sub.bond_pairs  # builds the cached generators, swap maps and pair maps
    snapshot = pickle.dumps(vars(sub))
    for bond, t, state in ((1, 1.25, vec), (2, -0.75, block)):
        evolved = state.copy()
        chain.evolve((bond,), (t,), evolved, sub)
        assert np.array_equal(chain.apply_bond_pulse(bond, t, state, sub), evolved)
        assert not np.array_equal(state, evolved)  # the wrapper pulsed a copy
    chain.evolve([3, 0], np.array([[0.5, 2.0], [1.5, -0.25]]), np.stack([block, block], axis=2), sub)
    idle = gates.simulate(PulseSequence("idle", ()), vec, sub)  # no pulses: a copy, not an IndexError
    assert idle is not vec and idle.tobytes() == vec.tobytes()
    assert pickle.dumps(vars(sub)) == snapshot


def test_apply_bond_pulse_rejects_bad_bonds_and_lengths():
    sub = chain.enumerate_subspace(6, 2)
    psi = np.zeros(sub.dim, dtype=np.complex128)
    psi[0] = 1.0
    for bond in (-1, 5):
        with pytest.raises(ValueError, match="bond"):
            chain.apply_bond_pulse(bond, 0.5, psi, sub)
    with pytest.raises(ValueError):
        chain.apply_bond_pulse(0, 0.5, psi[:-1], sub)
    # a number of duration rows neither 1 nor one per bond is refused
    with pytest.raises(ValueError, match="durations"):
        chain.evolve((0, 1, 2), np.full((2, 3), 0.5), np.ones((sub.dim, 3), dtype=np.complex128), sub)
