import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import chain, encoding, gates, linalg
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


def test_bond_eigensystem_spectrum():
    # each bond's spectrum on any sector sits inside {pi/2, -3*pi/2}
    for n, k, bond in [(2, 1, 0), (6, 2, 3), (6, 2, 0), (3, 1, 1)]:
        sub = chain.enumerate_subspace(n, k)
        values, _ = linalg.eig_hermitian(chain.build_bond_hamiltonian(bond, sub))
        distance = np.minimum(np.abs(values - PI / 2), np.abs(values + 1.5 * PI))
        assert distance.max() < 1e-12


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
# entry difference was 4.4e-15 for apply_bond_pulse on vectors and (dim, 5) blocks,
# and 3.6e-15 for evolve on (dim, 5, 5) chunks. The bound is 1e-14.
SWAP_PULSE_BOUND = 1e-14


@_SPACES
def test_apply_bond_pulse_is_bitwise_the_textbook_formula(space, textbook_pulse):
    # evolve_eigenbasis is V exp(-i lambda t) V^dagger psi, from the real eigensystem,
    # exactly as first written: the cached complex factors must not move a single bit.
    # A plain duration takes evolve's closed form, within SWAP_PULSE_BOUND of it.
    n_spins, _ = space
    sub = _space(*space)
    rng = np.random.default_rng(11)
    vec = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    block = rng.normal(size=(sub.dim, 5)) + 1j * rng.normal(size=(sub.dim, 5))
    # +0.0 and -0.0 scale the spectrum to different signed zeros, and NaN must stay NaN
    durations = np.array([-0.3, 0.5, 3.7, 0.0, -0.0, math.nan])
    n = len(durations)
    vecs = rng.normal(size=(n, sub.dim)) + 1j * rng.normal(size=(n, sub.dim))
    for bond in range(n_spins - 1):
        # the phase table holds each -1j * eigenvalue bit pattern once and spreads it back bit for bit
        _, _, (minus_i_values, spread) = sub.bond_factors[bond]
        values, _ = linalg.eig_hermitian(chain.build_bond_hamiltonian(bond, sub))
        assert len({value.tobytes() for value in minus_i_values}) == minus_i_values.size
        assert np.array_equal(minus_i_values[spread].view(np.uint64), (-1j * values).view(np.uint64))
        for t in durations.tolist():
            for state in (vec, block):
                got, expect = chain.apply_bond_pulse(bond, t, state, sub), textbook_pulse(bond, t, state, sub)
                if math.isnan(t):
                    assert np.isnan(got).all() and np.isnan(expect).all()
                else:
                    assert got.shape == state.shape and np.abs(got - expect).max() <= SWAP_PULSE_BOUND
        # an (n, dim, 1) stack with one duration per trial: each trial gets the bits it gets alone
        chunk_vecs = chain.evolve_eigenbasis((bond,), durations[None], vecs[..., None], sub)
        for k, t in enumerate(durations.tolist()):
            assert np.array_equal(chunk_vecs[k, :, 0], textbook_pulse(bond, t, vecs[k], sub), equal_nan=True)


@_SPACES
def test_every_bond_shares_one_spectrum_bitwise(space):
    # the premise of evolve_eigenbasis' phase reuse: each bond's eigenvalues agree bit for bit, values and
    # spread, so bond_factors hands every bond one spectrum object
    sub = _space(*space)
    spectra = {id(spectrum): spectrum for _, _, spectrum in sub.bond_factors}
    assert len(spectra) == 1
    ((minus_i_values, spread),) = spectra.values()
    values = (1j * minus_i_values).real  # ordered by bit pattern: pi/2, then -3 pi/2 (sign bit set)
    np.testing.assert_allclose(values, [PI / 2, -1.5 * PI], rtol=1e-15)
    # eigh's ascending order: -3 pi/2 once per pair of states the swap exchanges, then pi/2
    n_spins, n_excitations = space
    pairs = 2 ** (n_spins - 2) if n_excitations is None else math.comb(n_spins - 2, n_excitations - 1)
    assert np.array_equal(spread, [1] * pairs + [0] * (sub.dim - pairs))


def test_phases_are_reused_only_between_bonds_that_share_a_spectrum_bitwise():
    # bond 2 gets a spectrum of its own, scaled so its phases differ: a shared row must then compute bond 2's
    # phases and, after it, bond 3's again, giving the bits of one row per pulse and not those of the true spectrum
    sub = chain.enumerate_subspace(6, 2)
    apart = chain.Subspace(sub.n_spins, sub.n_excitations, sub.states)  # not the cached instance: its own factors
    factors = list(sub.bond_factors)
    vectors, adjoint, (minus_i_values, spread) = factors[2]
    factors[2] = (vectors, adjoint, (minus_i_values * 1.001, spread))
    apart.__dict__["bond_factors"] = tuple(factors)
    bonds = [pulse.bond for pulse in gates.swap_sequence()]
    rng = np.random.default_rng(31)
    durations = 0.5 + 1e-2 * rng.normal(size=(1, 37))
    stack = sub.dim ** -0.5 * np.ones((37, sub.dim, 1), dtype=np.complex128)
    shared = chain.evolve_eigenbasis(bonds, durations, stack, apart)
    assert np.array_equal(shared, chain.evolve_eigenbasis(bonds, np.repeat(durations, len(bonds), axis=0), stack, apart))
    assert not np.array_equal(shared, chain.evolve_eigenbasis(bonds, durations, stack, sub))


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
def test_swap_pulse_matches_the_textbook_pulse(space, textbook_pulse):
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
    # a sequence runs its pulses in order, each with its own row of durations: the
    # whole sequence in one call gives the bits of one call per pulse
    bonds = [n_spins - 2, 0, 1, 0, n_spins - 2]
    steps = rng.uniform(-2, 2, size=(len(bonds), 5))
    together, one_by_one = chunk[..., :5].copy(), chunk[..., :5].copy()
    chain.evolve(bonds, steps, together, sub)
    for bond, row in zip(bonds, steps):
        chain.evolve([bond], row[None], one_by_one, sub)
    assert np.array_equal(together, one_by_one)
    # the pulse has period 4 and a duration enters as fmod(t, 4), exactly: a float
    # as large as 3e307 is a multiple of 4, so its pulse is the identity, not NaN
    c, s = chain.swap_coefficients(np.array([3e307, -3e307, 4.5, 0.5]))
    assert np.array_equal(c[:2], [1, 1]) and np.array_equal(s[:2], [0, 0])
    assert c[2] == c[3] and s[2] == s[3]


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
    for shared in (*sub.bond_generators, *sub.bond_swaps):
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
    sub.bond_factors, sub.bond_swaps  # builds the cached factors and swap maps
    snapshot = pickle.dumps(vars(sub))
    chain.apply_bond_pulse(1, 1.25, vec, sub)
    chain.apply_bond_pulse(2, -0.75, block, sub)
    chain.evolve([3, 0], np.array([[0.5, 2.0], [1.5, -0.25]]), np.stack([block, block], axis=2), sub)
    chain.evolve_eigenbasis([4, 1], np.array([[0.5, 2.0]]), np.stack([vec, vec])[..., None], sub)
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
    stack = np.stack([psi] * 3)[..., None]
    # an (n, dim, 1) stack with one duration per trial: wrong n, wrong dim, m = 5 columns per trial (Q's
    # chunk), a 2-D state and a 2-D duration array are refused
    for durations, chunk in ((np.full(2, 0.5), stack), (np.full(3, 0.5), stack[:, :-1]),
                             (np.full(3, 0.5), np.repeat(stack, 5, axis=2)), (np.full(3, 0.5), stack[..., 0]),
                             (np.full((3, 1), 0.5), stack)):
        with pytest.raises(ValueError):
            chain.evolve_eigenbasis((0,), durations[None], chunk, sub)
    # a bond out of range, and a number of duration rows neither 1 nor one per bond, are refused by both kernels
    with pytest.raises(ValueError, match="bond"):
        chain.evolve_eigenbasis((0, 5), np.full((1, 3), 0.5), stack, sub)
    with pytest.raises(ValueError, match="durations"):
        chain.evolve_eigenbasis((0, 1, 2), np.full((2, 3), 0.5), stack, sub)
    with pytest.raises(ValueError, match="durations"):
        chain.evolve((0, 1, 2), np.full((2, 3), 0.5), np.ones((sub.dim, 3), dtype=np.complex128), sub)
