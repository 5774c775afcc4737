import math
import os
import pathlib
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

import kernel_variance
from spinlogic import chain, encoding, noise

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def fresh_python():
    """`python *args` in a fresh process that imports spinlogic from this checkout, with env added to its environment.

    For the few properties only a fresh process shows: what an import loads, settings the libraries read when they
    load, and `python -m spinlogic`'s own exit status and stderr. Everything else runs the CLI through cli.main.
    """
    def run(*args, **env) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **env}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    return run


@pytest.fixture(scope="session")
def kernel_outputs(fresh_python, tmp_path_factory):
    """kernel_variance.compute() per setting: "default" in this process, each of its SETTINGS in a fresh one."""
    outputs = {"default": kernel_variance.compute()}
    for setting, env in kernel_variance.SETTINGS.items():
        path = tmp_path_factory.mktemp(setting) / "outputs.pickle"
        done = fresh_python(kernel_variance.__file__, str(path), **env)
        assert done.returncode == 0, f"{setting}: {done.stderr}"
        outputs[setting] = pickle.loads(path.read_bytes())
    return outputs


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
    """exp(-i V_bond t) applied as V exp(-i lambda t) V^dagger, from its own eigendecomposition of each bond and sector.

    Shares no cache with chain.apply_bond_pulse or chain.evolve, which it is the reference for: its eigensystems are
    computed once per (bond, n_spins, n_excitations) and kept in this closure.
    Takes a vector or a (dim, m) column block. The products are einsums, not @, which sends a matvec to OpenBLAS:
    with its threads enabled, one 64-dim matvec took milliseconds on a loaded two-core machine.
    """
    eigensystems = {}

    def pulse(bond, t, state, sub):
        key = (bond, sub.n_spins, sub.n_excitations)
        if key not in eigensystems:
            eigensystems[key] = np.linalg.eigh(chain.build_bond_hamiltonian(bond, sub))
        values, vectors = eigensystems[key]
        phases = np.exp(-1j * values * t)
        weights = phases if state.ndim == 1 else phases[:, None]
        return np.einsum("ij,j...->i...", vectors, weights * np.einsum("ji,j...->i...", vectors.conj(), state))
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
                states = kernel_variance.trial_states([seed, i, j])
                draws = noise._draws(noise.NoiseModel(eps, p_mode), noise.NoiseModel(eps, q_mode), states)
                (p[j],), (q[j],), (ok[j],), (norm[j],) = noise._run_chunk(*draws)
            kept = q[ok]
            std_p, std_q = np.std(p, ddof=1), np.std(kept, ddof=1)
            points.append(noise.SweepPoint(eps, n_runs, np.mean(p), std_p, std_p / math.sqrt(n_runs), np.mean(kept),
                                           std_q, std_q / math.sqrt(kept.size), n_runs - kept.size, norm.max()))
        return points
    return rebuild
