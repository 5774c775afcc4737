import math
import time

import numpy as np
import pytest

from spinlogic import chain, encoding, linalg, noise


@pytest.fixture(scope="session")
def frame_a():
    return encoding.qubit_frame("A")


@pytest.fixture(scope="session")
def frame_b():
    return encoding.qubit_frame("B")


@pytest.fixture(scope="session")
def frame_ab():
    return encoding.pair_frame()


@pytest.fixture(scope="session")
def textbook_pulse():
    """exp(-i V_bond t) applied as V exp(-i lambda t) V^dagger, from a fresh eigendecomposition.

    Shares no cache with chain.apply_bond_pulse or chain.evolve, which it is the reference for.
    Takes a vector or a (dim, m) column block.
    """
    def pulse(bond, t, state, sub):
        values, vectors = linalg.eig_hermitian(chain.build_bond_hamiltonian(bond, sub))
        phases = np.exp(-1j * values * t)
        weights = phases if state.ndim == 1 else phases[:, None]
        return vectors @ (weights * (vectors.conj().T @ state))
    return pulse


@pytest.fixture(scope="session")
def default_sweep():
    """Full default sweep plus its wall-clock time; shared by the slow tests."""
    start = time.perf_counter()
    points = noise.sweep()
    elapsed = time.perf_counter() - start
    return points, elapsed


@pytest.fixture(scope="session")
def swapped_mode_points():
    """1000-run points on the laws of a swapped-mode sweep, P = 85 eps^2 and Q = 86 eps^3, with 0.1 % stderr."""
    return [noise.SweepPoint(e, 1000, 85 * e**2, 0, 0.085 * e**2, 86 * e**3, 0, 0.086 * e**3, 0) for e in (1e-4, 1e-3, 1e-2)]


@pytest.fixture(scope="session")
def millinoise_point():
    """One high-statistics point at eps = 1e-3 for spot checks off the log grid."""
    return noise.sweep([1e-3], n_runs=1000)[0]


@pytest.fixture(scope="session")
def lone_trial_sweep():
    """A sweep rebuilt from trials (i, j) each run alone from its substream, last j first."""
    def rebuild(grid, n_runs, seed, p_mode="common", q_mode="independent"):
        points = []
        for i, eps in enumerate(grid):
            p, q, ok, norm = np.empty(n_runs), np.empty(n_runs), np.empty(n_runs, dtype=bool), np.empty(n_runs)
            for j in reversed(range(n_runs)):
                state = np.random.SeedSequence([seed, i, j]).generate_state(4, np.uint64)
                draws = noise._draws(noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode), state[None])
                (p[j],), (q[j],), (ok[j],), (norm[j],) = noise._run_chunk(*draws)
            kept = q[ok]
            std_p, std_q = np.std(p, ddof=1), np.std(kept, ddof=1)
            points.append(noise.SweepPoint(eps, n_runs, np.mean(p), std_p, std_p / math.sqrt(n_runs), np.mean(kept),
                                           std_q, std_q / math.sqrt(kept.size), n_runs - kept.size, norm.max()))
        return points
    return rebuild
