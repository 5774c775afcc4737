"""Dense Hermitian linear algebra for small pulse generators.

Pulses evolve by the closed form exp(-i V_k t) = c + s S_k (chain.evolve). Only
the sweep's P pulses (noise._p_factors, eigenvectors only, kept for the rounding
the benchmark reference was recorded with) and independent references (propagator)
diagonalize a small real-symmetric bond Hamiltonian, so this module only has
to validate Hermiticity, diagonalize and exponentiate. Eigenvalues are ascending, with orthonormal eigenvector columns.
"""
from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix has no spectrum")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    gap = float(np.abs(m - m.conj().T).max())
    if gap > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: max|H - H^dagger| = {gap:.3e} > {HERMITIAN_ATOL:.1e}")
    return np.linalg.eigh(m)


def propagator(matrix: np.ndarray, duration: float) -> np.ndarray:
    """Unitary exp(-i H t) of a Hermitian generator H.

    Negative durations are legal and give the inverse evolution.
    """
    if not np.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    values, vectors = eig_hermitian(matrix)
    phases = np.exp(-1j * values * duration)
    return (vectors * phases) @ vectors.conj().T
