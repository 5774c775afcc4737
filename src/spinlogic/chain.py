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
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import linalg

MAX_SECTOR_SPINS = 10
MAX_FULL_SPINS = 8


@dataclass(frozen=True)
class Subspace:
    """A fixed-excitation sector (or the full space, n_excitations=None).

    Bond generators, propagator factors and swap maps are cached on the instance;
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
    def bond_factors(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per bond, bond 0 first: V and V^dagger as C-contiguous complex arrays, -1j * each distinct eigenvalue,
        and the index that spreads those back over the spectrum.

        V and the eigenvalues come from the bond generator's eigendecomposition;
        these are what apply_bond_pulse multiplies by. Complex C-ordered copies
        give products bit-identical to the real eigenvectors (numpy casts those
        the same way); F-ordered copies do not. Eigenvalues are told apart by
        their bit patterns, so -0.0 and +0.0 stay two, and a pulse takes exp of
        each distinct value once (eigh gives every bond two).
        """
        factors = []
        for generator in self.bond_generators:
            values, vectors = linalg.eig_hermitian(generator)
            # ravel: np.unique's inverse took the input's shape in some numpy 2.0.x releases
            bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
            factors.append(
                (
                    np.ascontiguousarray(vectors, dtype=np.complex128),
                    np.ascontiguousarray(vectors.conj().T, dtype=np.complex128),
                    -1j * bits.view(np.float64),
                    inverse.ravel(),
                )
            )
        return tuple(factors)

    @cached_property
    def bond_swaps(self) -> tuple[np.ndarray, ...]:
        """Per bond, bond 0 first: the index each basis state maps to with spins k and k+1 exchanged, read-only.

        bond_swap_indices restricted to the subspace (a swap keeps the excitation
        number), so the generator is pi * S_k - pi/2 on the basis here too.
        """
        states = np.array(self.states)
        position = np.zeros(1 << self.n_spins, dtype=np.intp)
        position[states] = np.arange(self.dim)
        maps = tuple(position[swapped[states]] for swapped in bond_swap_indices(self.n_spins))
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


def apply_bond_pulse(bond: int, duration: float | np.ndarray, state: np.ndarray, subspace: Subspace) -> np.ndarray:
    """exp(-i V_bond t) applied to a vector or a (dim, m) column block, or per duration to an (n, dim, 1) stack.

    The factors are the bond generator's eigenbasis, V exp(-i lambda t) V^dagger.
    A 1-D array of n durations evolves trial j, state[j], for duration j with
    the bits it gets alone: np.matmul makes one gemv per trial on the
    contiguous stack, as for a lone vector, where one gemm over the n columns
    would round a fifth of the entries differently. P's chunk takes this
    branch; Q's chunk takes swap_pulse.
    """
    factors = subspace.bond_factors
    if not 0 <= bond < len(factors):
        raise _bond_error(bond, subspace)
    vectors, adjoint, minus_i_values, spread = factors[bond]
    if isinstance(duration, np.ndarray):
        if duration.ndim != 1 or state.ndim != 3 or state.shape[::2] != (len(duration), 1):
            raise ValueError(f"{duration.shape} durations do not match an (n, dim, 1) stack of shape {state.shape}")
        phases = np.exp(minus_i_values * duration[:, None])[:, spread]  # (n, dim)
        # phases first: numpy's SIMD complex multiply rounds rotated * phases differently
        return np.matmul(vectors, np.multiply(phases[..., None], np.matmul(adjoint, state)))
    # ndarray.dot has less call overhead than @ on these small arrays, with the same bits
    rotated = adjoint.dot(np.asarray(state, dtype=np.complex128))
    phases = np.exp(minus_i_values * duration)[spread]
    if rotated.ndim == 2:
        return vectors.dot(phases[:, None] * rotated)
    return vectors.dot(phases * rotated)


def swap_coefficients(durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c and s with exp(-i V_k t) = c + s S_k for each duration t, on every bond and subspace.

    V_k = pi * S_k - pi/2 and S_k^2 = 1 give c = exp(i pi t/2) cos(pi t) and
    s = -i exp(i pi t/2) sin(pi t) (DiVincenzo et al., quant-ph/0005116). The
    pulse has period 4 in t, so t enters as fmod(t, 4), which is exact: every
    finite duration gives finite coefficients, and a NaN or infinite one gives
    NaN. Only real multiplies follow the trigonometry, so an entry's bits do
    not depend on its place in the array.
    """
    angle = np.pi * np.fmod(durations, 4.0)
    cos, sin = np.cos(angle), np.sin(angle)
    half_cos, half_sin = np.cos(0.5 * angle), np.sin(0.5 * angle)
    c, s = np.empty(angle.shape, dtype=np.complex128), np.empty(angle.shape, dtype=np.complex128)
    c.real, c.imag = half_cos * cos, half_sin * cos
    s.real, s.imag = half_sin * sin, -(half_cos * sin)
    return c, s


def swap_pulse(swap: np.ndarray, c: np.ndarray, s: np.ndarray, state: np.ndarray, gathered: np.ndarray) -> None:
    """One bond pulse on a (dim, ..., n) chunk in place, trial j in state[..., j]: state = c * state + s * state[swap].

    swap is the bond's Subspace.bond_swaps map, and c and s are the n trials'
    swap_coefficients. gathered is a scratch array of the state's shape, so a
    pulse allocates nothing, and no BLAS call is made.
    """
    np.take(state, swap, axis=0, out=gathered, mode="clip")  # every index is in range; "raise" buffers the output
    np.multiply(state, c, out=state)
    np.multiply(gathered, s, out=gathered)
    np.add(state, gathered, out=state)


@cache
def bond_swap_indices(n_spins: int) -> tuple[np.ndarray, ...]:
    """Per bond of an n-spin chain, the index each full-space pattern maps to with bits k and k+1 exchanged.

    Built once per chain length and read-only; Subspace.bond_swaps restricts it to a sector.
    """
    index = np.arange(full_space(n_spins).dim)
    maps = tuple(index ^ ((((index >> k) ^ (index >> (k + 1))) & 1) * (3 << k)) for k in range(n_spins - 1))
    for swapped in maps:
        swapped.flags.writeable = False
    return maps


def full_space_oracle(sequence, initial_state: np.ndarray) -> np.ndarray:
    """Evolve a full 2^n state vector through a pulse sequence, no sector shortcut.

    Shares no code with apply_bond_pulse, and with swap_pulse only the swap map: V_k = pi*SWAP_k - pi/2
    and SWAP_k^2 = 1 give exp(-i V_k t) = exp(i*pi*t/2) [cos(pi*t) - i*sin(pi*t) SWAP_k] (DiVincenzo
    et al., quant-ph/0005116), where SWAP_k exchanges bits k and k+1 of every basis index. The
    chain length is inferred from the state length, a power of two of at most MAX_FULL_SPINS bits.
    """
    psi = np.asarray(initial_state, dtype=np.complex128)
    dim = psi.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"state length {dim} is not a power of two")
    n_spins = dim.bit_length() - 1
    swapped = bond_swap_indices(n_spins)
    for pulse in sequence:
        if not 0 <= pulse.bond < len(swapped):
            raise _bond_error(pulse.bond, full_space(n_spins))
        angle = math.pi * pulse.duration
        psi = cmath.exp(0.5j * angle) * (math.cos(angle) * psi - 1j * math.sin(angle) * psi[swapped[pulse.bond]])
    return psi


def embed_in_full_space(state: np.ndarray, sector: Subspace) -> np.ndarray:
    """Lift a sector vector to the full 2^n basis."""
    psi = np.zeros(1 << sector.n_spins, dtype=np.complex128)
    psi[list(sector.states)] = np.asarray(state, dtype=np.complex128)
    return psi
