import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import linalg

# the logical-pair generator of the inner bond; its spectrum is solved by hand:
# lambda^2 - D*lambda - W^2/4 = 0 with D = -pi, W = -sqrt(3)*pi gives
# lambda = (-pi +- 2*pi)/2, i.e. {-3*pi/2, pi/2}
D = -math.pi
W = -math.sqrt(3) * math.pi
INNER_PAIR = np.array([[0, -W / 2], [-W / 2, D]])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw + raw.conj().T


def test_inner_pair_spectrum_solved_by_hand():
    values, vectors = linalg.eig_hermitian(INNER_PAIR)
    assert np.allclose(values, [-1.5 * math.pi, 0.5 * math.pi], atol=1e-13)
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() < 1e-13


def test_outer_pair_spectrum_is_diagonal():
    outer = np.diag([1.5 * D, -0.5 * D])
    values, vectors = linalg.eig_hermitian(outer)
    assert np.allclose(values, sorted([1.5 * D, -0.5 * D]), atol=1e-15)
    # diagonal input: eigenvectors are the standard basis up to order and sign
    assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-15)


def test_identity_spectrum():
    values, vectors = linalg.eig_hermitian(np.eye(3))
    assert np.allclose(values, 1.0)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_eigendecomposition_reconstructs_and_orders(dim, seed):
    h = random_hermitian(np.random.default_rng(seed), dim)
    values, vectors = linalg.eig_hermitian(h)
    assert np.all(np.diff(values) >= -1e-12), "eigenvalues must come out ascending"
    assert np.abs(vectors.conj().T @ vectors - np.eye(dim)).max() < 1e-10
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-10


def test_rejects_non_hermitian_with_diagnostic():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.eig_hermitian(bad)


def test_rejects_empty_and_non_square_and_nan():
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        linalg.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_propagator_at_zero_time_is_identity():
    u = linalg.propagator(INNER_PAIR, 0.0)
    assert np.abs(u - np.eye(2)).max() < 1e-15


def test_propagator_periods_of_the_exchange_spectrum():
    # spectrum {-3*pi/2, pi/2}: a duration of 2 gives -identity, 4 gives identity
    assert np.abs(linalg.propagator(INNER_PAIR, 2.0) + np.eye(2)).max() < 1e-12
    assert np.abs(linalg.propagator(INNER_PAIR, 4.0) - np.eye(2)).max() < 1e-12


def test_propagator_rejects_non_finite_duration():
    with pytest.raises(ValueError, match="finite"):
        linalg.propagator(INNER_PAIR, math.inf)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_propagator_is_unitary_and_composes(dim, t, seed):
    h = random_hermitian(np.random.default_rng(seed), dim)
    u = linalg.propagator(h, t)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
    both = linalg.propagator(h, 2 * t)
    assert np.abs(u @ u - both).max() < 1e-9


def test_negative_duration_inverts():
    u = linalg.propagator(INNER_PAIR, 0.37)
    v = linalg.propagator(INNER_PAIR, -0.37)
    assert np.abs(u @ v - np.eye(2)).max() < 1e-13


def test_diagonal_generator_evolves_by_pure_phases():
    # outer bond on the logical pair: diag(3D/2, -D/2) so the slot phases are
    # exp(-i*3*D*t/2) and exp(+i*D*t/2)
    outer = np.diag([1.5 * D, -0.5 * D])
    t = 0.613
    u = linalg.propagator(outer, t)
    expect = np.diag([np.exp(-1.5j * D * t), np.exp(0.5j * D * t)])
    assert np.abs(u - expect).max() < 1e-13
