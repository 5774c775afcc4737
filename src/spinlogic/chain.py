"""Isotropic spin-1/2 chain: excitation sectors and nearest-neighbour exchange pulses.

Bond k couples spins k and k+1 with the always-on exchange form

    V_k = 2*pi * [ Sz_k Sz_{k+1} + (S+_k S-_{k+1} + S-_k S+_{k+1}) / 2 ]

so a pulse of duration t applies exp(-i V_k t) and t is dimensionless (one
full exchange period is t = 4, and t = 1/2 swaps the two spins up to a phase).

State conventions, used verbatim everywhere downstream:
  * basis patterns are integers; bit k is spin k, and a set bit means the
    spin is excited (|1>, Sz = -1/2);
  * printed bitstrings are big-endian, spin 0 rightmost, so pattern 3 on six
    spins reads "000011";
  * V_k conserves the excitation number, so work happens in fixed-popcount
    sectors enumerated in increasing pattern order.

On a sector basis the matrix rule is: diagonal +pi/2 when bits k, k+1 agree,
else -pi/2, plus an off-diagonal pi connecting the two patterns related by
swapping bits k and k+1.

So V_k = pi S_k - pi/2 with S_k that swap, and a pulse is the phase
exp(-i pi t/2) times 1 + (exp(2 pi i t) - 1) P_k, P_k the projector on the
bond's singlets (x_a - x_b)/sqrt(2), one per pair (a, b) that S_k exchanges
(DiVincenzo et al., quant-ph/0005116). evolve, the one pulse formula, moves
only those pair rows (Subspace.bond_pairs) and applies the phase once per call.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_SECTOR_SPINS = 10
MAX_FULL_SPINS = 8
# evolve's constants as 0-d arrays, which a ufunc takes without converting a Python float each call
_PI, _MINUS_HALF, _PERIOD = np.array(np.pi), np.array(-0.5), np.array(4.0)


@dataclass(frozen=True)
class Subspace:
    """A fixed-excitation sector (or the full space, n_excitations=None).

    Bond generators, swap maps and pair maps are cached on the instance;
    enumerate_subspace and full_space hand out one shared instance per sector,
    so every caller reuses them without hashing the states.
    """

    n_spins: int
    n_excitations: int | None
    states: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, pattern: int) -> int:
        try:
            return self._pattern_index[pattern]
        except KeyError:
            raise ValueError(f"pattern {pattern:#08b} is not in this subspace") from None

    def bitstring(self, pattern: int) -> str:
        return format(pattern, f"0{self.n_spins}b")

    @cached_property
    def _pattern_index(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def bond_generators(self) -> tuple[np.ndarray, ...]:
        """Per bond, bond 0 first: the exchange generator, built once and read-only."""
        generators = tuple(build_bond_hamiltonian(bond, self) for bond in range(self.n_spins - 1))
        for generator in generators:
            generator.flags.writeable = False
        return generators

    @cached_property
    def bond_swaps(self) -> tuple[np.ndarray, ...]:
        """Per bond, bond 0 first: the index each basis state maps to with spins k and k+1 exchanged, read-only.

        Bits k and k+1 of each pattern trade places, which keeps the excitation
        number, so the generator is pi * S_k - pi/2 on any sector's basis.
        bond_pairs, which evolve reads, comes from these maps. build_bond_hamiltonian
        keeps its own bit test on purpose: a test holds the two equal, and evolve's
        textbook reference is built from that generator, also on the 9- and 10-spin
        sectors the full-space oracle cannot reach.
        """
        states = np.array(self.states)
        position = np.zeros(1 << self.n_spins, dtype=np.intp)
        position[states] = np.arange(self.dim)
        maps = tuple(position[states ^ ((((states >> k) ^ (states >> (k + 1))) & 1) * (3 << k))]
                     for k in range(self.n_spins - 1))
        for swapped in maps:
            swapped.flags.writeable = False
        return maps

    @cached_property
    def bond_pairs(self) -> tuple[np.ndarray, ...]:
        """Per bond, bond 0 first: the 2m rows of the bond's m pairs (a, b) that bond_swaps exchanges, read-only.

        The first m entries are each pair's lower index a, ascending, and the last m their partners b in the same
        order; the states bond_swaps fixes are in no pair. evolve pulses these rows only.
        """
        lowers = (np.flatnonzero(swapped > np.arange(self.dim)) for swapped in self.bond_swaps)
        maps = tuple(np.concatenate([lower, swapped[lower]]) for lower, swapped in zip(lowers, self.bond_swaps))
        for pairs in maps:
            pairs.flags.writeable = False
        return maps


@cache
def enumerate_subspace(n_spins: int, n_excitations: int) -> Subspace:
    """All patterns of n_spins bits with exactly n_excitations set, ascending."""
    if not 1 <= n_spins <= MAX_SECTOR_SPINS:
        raise ValueError(f"n_spins must be in [1, {MAX_SECTOR_SPINS}], got {n_spins}")
    if not 0 <= n_excitations <= n_spins:
        raise ValueError(f"n_excitations must be in [0, {n_spins}], got {n_excitations}")
    states = tuple(p for p in range(1 << n_spins) if bin(p).count("1") == n_excitations)
    return Subspace(n_spins, n_excitations, states)


@cache
def full_space(n_spins: int) -> Subspace:
    if not 1 <= n_spins <= MAX_FULL_SPINS:
        raise ValueError(f"full-space evolution is capped at {MAX_FULL_SPINS} spins, got {n_spins}")
    return Subspace(n_spins, None, tuple(range(1 << n_spins)))


def _bond_error(bond: int, subspace: Subspace) -> ValueError:
    return ValueError(f"bond {bond} needs spins {bond} and {bond + 1}; chain has {subspace.n_spins} spins")


def build_bond_hamiltonian(bond: int, subspace: Subspace) -> np.ndarray:
    """Exchange generator of bond k on the subspace basis (real symmetric)."""
    if not 0 <= bond <= subspace.n_spins - 2:
        raise _bond_error(bond, subspace)
    dim = subspace.dim
    matrix = np.zeros((dim, dim))
    mask = (1 << bond) | (1 << (bond + 1))
    for row, pattern in enumerate(subspace.states):
        if ((pattern >> bond) & 1) == ((pattern >> (bond + 1)) & 1):
            matrix[row, row] = np.pi / 2
        else:
            matrix[row, row] = -np.pi / 2
            matrix[row, subspace.index_of(pattern ^ mask)] = np.pi
    return matrix


def bond_generator(bond: int, subspace: Subspace) -> np.ndarray:
    """The subspace's shared read-only generator of bond k; copy it to modify it."""
    generators = subspace.bond_generators
    if not 0 <= bond < len(generators):
        raise _bond_error(bond, subspace)
    return generators[bond]


def apply_bond_pulse(bond: int, duration: float, state: np.ndarray, subspace: Subspace) -> np.ndarray:
    """exp(-i V_bond t) on a copy of a vector or (dim, m) block, by evolve; kept for bench/ and the tests only."""
    psi = np.array(state, dtype=np.complex128)
    evolve((bond,), (duration,), psi, subspace)
    return psi


def evolve(bonds, durations, state: np.ndarray, subspace: Subspace) -> None:
    """Pulse bonds[k] for durations[k], k = 0, 1, ..., in place on a complex (dim, ...) state.

    Each pulse moves only its bond's pair rows (bond_pairs): u = h (x_a - x_b), x_a += u and x_b -= u, with
    h = (exp(2 i theta) - 1)/2 = -sin^2 theta + i sin theta cos theta and theta = pi fmod(t, 4) (the pulse has period
    4 in t and fmod is exact, so a finite duration gives finite coefficients and a NaN or infinite one NaN). The phase
    exp(-i theta/2) that every pulse puts on every row is applied once, after the last pulse, as the running product
    of the pulses' cos(theta/2) - i sin(theta/2) along the pulse axis.

    durations[k] broadcasts against state[0], so a (len(bonds), n) array gives trial j of a (dim, ..., n) chunk,
    state[..., j], its own. A durations of one entry is every bond's: its h is computed once and serves every pulse,
    so a (1, n) row gives trial j one duration for all pulses (common-mode draws). Every step is elementwise along
    the trials, with one scratch array and no BLAS call, so no entry's bits depend on the chunk.
    """
    pairs = subspace.bond_pairs
    if state.shape[0] != subspace.dim:
        raise ValueError(f"state dimension {state.shape[0]} does not match sector dimension {subspace.dim}")
    if bad := [bond for bond in bonds if not 0 <= bond < len(pairs)]:
        raise _bond_error(bad[0], subspace)
    if len(durations) not in (1, len(bonds)):
        raise ValueError(f"{len(durations)} durations for {len(bonds)} bonds")
    if len(bonds) == 0:
        return
    angle = _PI * np.fmod(durations, _PERIOD)
    back = _MINUS_HALF * angle  # exp(-i theta/2) = cos(back) + i sin(back)
    sin = np.sin(angle)
    kicks, turns = np.empty(angle.shape, dtype=np.complex128), np.empty(angle.shape, dtype=np.complex128)
    kicks.real, kicks.imag = -(sin * sin), sin * np.cos(angle)
    turns.real, turns.imag = np.cos(back), np.sin(back)
    if len(kicks) < len(bonds):  # one row serves every pulse, as a view
        kicks, turns = (np.broadcast_to(values, (len(bonds), *values.shape[1:])) for values in (kicks, turns))
    phase = np.multiply.accumulate(turns, axis=0)[-1]
    m = len(pairs[0]) // 2
    scratch = np.empty((3 * m, *state.shape[1:]), dtype=np.complex128)
    rows, upper, lower, kicked = scratch[:2 * m], scratch[:m], scratch[m:2 * m], scratch[2 * m:]
    for bond, kick in zip(bonds, kicks):
        rows_of_pairs = pairs[bond]
        # ndarray.take and in-place operators skip np.take's and np.multiply's wrappers; mode="raise" buffers
        state.take(rows_of_pairs, axis=0, out=rows, mode="clip")
        np.subtract(upper, lower, out=kicked)
        kicked *= kick
        upper += kicked
        lower -= kicked
        state[rows_of_pairs] = rows
    state *= phase


@cache
def _tensor_swaps(n_spins: int) -> tuple[np.ndarray, ...]:
    """Per bond k, the full-space index map that swaps axes n-1-k and n-2-k (spins k, k+1) of the (2,)*n basis."""
    tensor = np.arange(1 << n_spins).reshape((2,) * n_spins)
    return tuple(tensor.swapaxes(n_spins - 1 - k, n_spins - 2 - k).ravel() for k in range(n_spins - 1))


def full_space_oracle(sequence, initial_state: np.ndarray) -> np.ndarray:
    """Evolve a full 2^n state vector through a pulse sequence, no sector shortcut.

    Shares no code with evolve or apply_bond_pulse, not even the swap map: V_k = pi*SWAP_k - pi/2
    and SWAP_k^2 = 1 give exp(-i V_k t) = exp(i*pi*t/2) [cos(pi*t) - i*sin(pi*t) SWAP_k] (DiVincenzo
    et al., quant-ph/0005116), with SWAP_k's map from axes (_tensor_swaps), not bits as in bond_swaps.
    The chain length is inferred from the state length, a power of two of at most MAX_FULL_SPINS bits.
    """
    psi = np.asarray(initial_state, dtype=np.complex128)
    dim = psi.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"state length {dim} is not a power of two")
    space = full_space(dim.bit_length() - 1)
    swapped = _tensor_swaps(space.n_spins)
    for pulse in sequence:
        if not 0 <= pulse.bond < len(swapped):
            raise _bond_error(pulse.bond, space)
        angle = math.pi * pulse.duration
        psi = cmath.exp(0.5j * angle) * (math.cos(angle) * psi - 1j * math.sin(angle) * psi[swapped[pulse.bond]])
    return psi


def embed_in_full_space(state: np.ndarray, sector: Subspace) -> np.ndarray:
    """Lift a sector vector to the full 2^n basis."""
    psi = np.zeros(1 << sector.n_spins, dtype=np.complex128)
    psi[list(sector.states)] = np.asarray(state, dtype=np.complex128)
    return psi
