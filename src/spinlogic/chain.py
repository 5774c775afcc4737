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
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_SECTOR_SPINS = 10
MAX_FULL_SPINS = 8
# swap_coefficients' constants as 0-d arrays, which a ufunc takes without converting a Python float each call
_PI, _HALF, _PERIOD = np.array(np.pi), np.array(0.5), np.array(4.0)


@dataclass(frozen=True)
class Subspace:
    """A fixed-excitation sector (or the full space, n_excitations=None).

    Bond generators and swap maps are cached on the instance; enumerate_subspace
    and full_space hand out one shared instance per sector, so every caller
    reuses them without hashing the states.
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

        The one place the swap's bit formula lives: bits k and k+1 of each pattern
        trade places, which keeps the excitation number, so the generator is
        pi * S_k - pi/2 on any sector's basis. evolve gathers by these maps.
        """
        states = np.array(self.states)
        position = np.zeros(1 << self.n_spins, dtype=np.intp)
        position[states] = np.arange(self.dim)
        maps = tuple(position[states ^ ((((states >> k) ^ (states >> (k + 1))) & 1) * (3 << k))]
                     for k in range(self.n_spins - 1))
        for swapped in maps:
            swapped.flags.writeable = False
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


def swap_coefficients(durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c and s with exp(-i V_k t) = c + s S_k for each duration t, on every bond and subspace.

    V_k = pi * S_k - pi/2 and S_k^2 = 1 give c = exp(i pi t/2) cos(pi t) and
    s = -i exp(i pi t/2) sin(pi t) (DiVincenzo et al., quant-ph/0005116). The
    pulse has period 4 in t, so t enters as fmod(t, 4), which is exact: every
    finite duration gives finite coefficients, and a NaN or infinite one gives
    NaN. Only real multiplies follow the trigonometry, so an entry's bits do
    not depend on its place in the array.
    """
    angle = _PI * np.fmod(durations, _PERIOD)
    half = _HALF * angle
    cos, sin, half_cos, half_sin = np.cos(angle), np.sin(angle), np.cos(half), np.sin(half)
    c, s = np.empty(angle.shape, dtype=np.complex128), np.empty(angle.shape, dtype=np.complex128)
    c.real, c.imag = half_cos * cos, half_sin * cos
    s.real, s.imag = half_sin * sin, -(half_cos * sin)
    return c, s


def evolve(bonds, durations, state: np.ndarray, subspace: Subspace) -> None:
    """Pulse bonds[k] for durations[k], k = 0, 1, ..., in place on a complex (dim, ...) state.

    Each pulse is state = c * state + s * state[S_k], S_k the bond's bond_swaps map, with c and s
    the swap_coefficients of all durations, computed once. durations[k] broadcasts against state[0],
    so a (len(bonds), n) array gives trial j of a (dim, ..., n) chunk, state[..., j], its own. A
    durations of one entry is every bond's: its coefficients are computed once and serve every
    pulse, so a (1, n) row gives trial j one duration for all pulses (common-mode draws). One
    scratch array serves every pulse and no BLAS is called, so no entry's bits depend on the chunk.
    """
    swaps = subspace.bond_swaps
    if state.shape[0] != subspace.dim:
        raise ValueError(f"state dimension {state.shape[0]} does not match sector dimension {subspace.dim}")
    if bad := [bond for bond in bonds if not 0 <= bond < len(swaps)]:
        raise _bond_error(bad[0], subspace)
    if len(durations) not in (1, len(bonds)):
        raise ValueError(f"{len(durations)} durations for {len(bonds)} bonds")
    c, s = swap_coefficients(durations)
    if len(c) == 1:
        c, s = itertools.repeat(c[0]), itertools.repeat(s[0])
    gathered = np.empty_like(state)
    for bond, c_k, s_k in zip(bonds, c, s):
        # ndarray.take and in-place operators skip np.take's and np.multiply's wrappers; mode="raise" buffers
        state.take(swaps[bond], axis=0, out=gathered, mode="clip")
        state *= c_k
        gathered *= s_k
        state += gathered


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
