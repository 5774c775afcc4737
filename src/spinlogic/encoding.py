"""Logical qubits encoded in three-spin blocks of the chain.

One logical qubit lives in three neighbouring spins carrying a single
excitation. With |pqr> big-endian (spin indices 2,1,0 within the block):

    |0_L> = (|010> - |100>) / sqrt(2)
    |1_L> = sqrt(2/3) |001> - (|010> + |100>) / sqrt(6)
    |aux> = (|001> + |010> + |100>) / sqrt(3)

|0_L> and |1_L> span the total-block-spin-1/2 pair the gate pulses act on;
|aux> is the symmetric spin-3/2 companion that the intra-block bonds never
populate. Qubit A is spins 0-2 (bonds 0,1), qubit B is spins 3-5 (bonds 3,4)
with identical coefficients on the shifted patterns.

The two-qubit frame spans the six-spin two-excitation sector (dimension 15):
nine block-product states ordered B-major over (0, 1, aux), then the six
states with both excitations inside one block, in ascending pattern order.

Frames are built once and shared: qubit_frame(block) and pair_frame() return
the same instance on every call, and its vectors array is read-only, so no
caller can change the frame another caller sees. Copy it to modify it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import chain

NORMALIZATION_ATOL = 1e-9

BLOCK_BONDS = {"A": (0, 1), "B": (3, 4)}

# single-block coefficient tables, pattern -> amplitude, for a block at spins 0-2
_ZERO = {0b010: 1 / math.sqrt(2), 0b100: -1 / math.sqrt(2)}
_ONE = {0b001: math.sqrt(2 / 3), 0b010: -1 / math.sqrt(6), 0b100: -1 / math.sqrt(6)}
_AUX = {0b001: 1 / math.sqrt(3), 0b010: 1 / math.sqrt(3), 0b100: 1 / math.sqrt(3)}
_BLOCK_TABLES = (_ZERO, _ONE, _AUX)
_BLOCK_LABELS = ("0", "1", "a")


@dataclass(frozen=True, eq=False)
class LogicalFrame:
    """Orthonormal columns spanning a logical frame inside a chain sector."""

    subspace: chain.Subspace
    vectors: np.ndarray
    labels: tuple[str, ...]

    @property
    def n_columns(self) -> int:
        return self.vectors.shape[1]


def _shifted(table: dict[int, float], offset: int) -> dict[int, float]:
    return {pattern << offset: coeff for pattern, coeff in table.items()}


def block_bonds(block: str) -> tuple[int, int]:
    if block not in BLOCK_BONDS:
        raise ValueError(f"block must be {' or '.join(map(repr, BLOCK_BONDS))}, got {block!r}")
    return BLOCK_BONDS[block]


def qubit_frame(block: str = "A") -> LogicalFrame:
    """|0_L>, |1_L>, |aux> for one block, in the smallest sector that holds them.

    Block A lives in the 3-spin single-excitation sector; block B needs the
    6-spin chain (its bonds are 3 and 4), so it is framed in the 6-spin
    single-excitation sector with spins 0-2 empty. Every call for a block
    returns the same read-only instance.
    """
    block_bonds(block)
    return _qubit_frame(block)


@cache
def _qubit_frame(block: str) -> LogicalFrame:
    offset = 0 if block == "A" else 3
    sub = chain.enumerate_subspace(3, 1) if block == "A" else chain.enumerate_subspace(6, 1)
    columns = np.zeros((sub.dim, 3), dtype=np.complex128)
    for j, table in enumerate(_BLOCK_TABLES):
        for pattern, coeff in _shifted(table, offset).items():
            columns[sub.index_of(pattern), j] = coeff
    columns.flags.writeable = False
    return LogicalFrame(sub, columns, _BLOCK_LABELS)


@cache
def pair_frame() -> LogicalFrame:
    """Full 15-state frame of the 6-spin two-excitation sector (one shared read-only instance).

    Columns 0-3 are the logical products 00, 01, 10, 11 (first digit qubit B,
    second qubit A); columns 4-8 bring in the auxiliary block states; columns
    9-14 are the double-excitation patterns of a single block.
    """
    sub = chain.enumerate_subspace(6, 2)
    # the four logical products first, then the auxiliary-bearing products
    order = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    columns = np.zeros((sub.dim, 15), dtype=np.complex128)
    labels = []
    for j, (b, a) in enumerate(order):
        for pb, cb in _shifted(_BLOCK_TABLES[b], 3).items():
            for pa, ca in _BLOCK_TABLES[a].items():
                columns[sub.index_of(pb | pa), j] = cb * ca
        labels.append(_BLOCK_LABELS[b] + _BLOCK_LABELS[a])
    tails = [p for p in sub.states if (p & 0b111 == 0) or (p >> 3 == 0)]
    for j, pattern in enumerate(sorted(tails), start=9):
        columns[sub.index_of(pattern), j] = 1.0
        labels.append(sub.bitstring(pattern))
    columns.flags.writeable = False
    return LogicalFrame(sub, columns, tuple(labels))


def squared_norm(amplitudes: np.ndarray) -> float:
    """sum |c|^2 of complex amplitudes; inf, without an overflow warning, if a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(amplitudes) ** 2))


def encode(amplitudes: np.ndarray, frame: LogicalFrame) -> np.ndarray:
    """Map logical amplitudes onto the first len(amplitudes) frame columns.

    A sum |c|^2 within NORMALIZATION_ATOL of 1 is rescaled to 1; any other is refused.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or not 1 <= amps.shape[0] <= frame.n_columns:
        raise ValueError(f"expected 1..{frame.n_columns} amplitudes, got shape {amps.shape}")
    norm = squared_norm(amps)
    if not abs(norm - 1.0) <= NORMALIZATION_ATOL:  # also rejects NaN
        raise ValueError(f"amplitudes not normalized: sum |c|^2 = {norm:.12g}")
    return frame.vectors[:, : amps.shape[0]] @ (amps / math.sqrt(norm))


def decode(state: np.ndarray, frame: LogicalFrame, n_columns: int | None = None) -> tuple[np.ndarray, float]:
    """Amplitudes on the first n frame columns plus the leakage off that span.

    Leakage is 1 - sum |amplitude|^2, clamped at zero against round-off.
    """
    n = frame.n_columns if n_columns is None else n_columns
    amps = frame.vectors[:, :n].conj().T @ np.asarray(state, dtype=np.complex128)
    leakage = max(0.0, 1.0 - squared_norm(amps))
    return amps, leakage


def project_bond(bond: int, frame: LogicalFrame, n_columns: int = 2) -> np.ndarray:
    """Bond generator compressed onto the leading frame columns."""
    h = chain.bond_generator(bond, frame.subspace)
    block = frame.vectors[:, :n_columns]
    return block.conj().T @ h @ block


def auxiliary_coupling(block: str = "A") -> np.ndarray:
    """Matrix elements <aux| V_bond |logical> for the block's two bonds.

    Row = bond (inner, outer), column = logical state (0, 1). All four vanish:
    the auxiliary state is exchange-decoupled, which is what makes the
    three-spin encoding workable.
    """
    frame = qubit_frame(block)
    return np.array([project_bond(bond, frame, 3)[2, :2] for bond in block_bonds(block)])
