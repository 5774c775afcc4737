import math
import time

import numpy as np
import pytest

from spinlogic import encoding, noise


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
def default_sweep():
    """Full default sweep plus its wall-clock time; shared by the slow tests."""
    start = time.perf_counter()
    points = noise.sweep()
    elapsed = time.perf_counter() - start
    return points, elapsed


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
                rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
                p[j], q[j], ok[j], norm[j] = noise._run_trial(noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode), rng)
            kept = q[ok]
            std_p, std_q = np.std(p, ddof=1), np.std(kept, ddof=1)
            points.append(noise.SweepPoint(eps, n_runs, np.mean(p), std_p, std_p / math.sqrt(n_runs), np.mean(kept),
                                           std_q, std_q / math.sqrt(kept.size), n_runs - kept.size, norm.max()))
        return points
    return rebuild
