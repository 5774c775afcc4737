"""The sweep kernel's outputs and verify's errors, whose last bits depend on the BLAS and SIMD kernels numpy runs.

OpenBLAS and numpy pick their kernels when they load, so each of SETTINGS needs a process of its own:
`python kernel_variance.py OUT` pickles compute() under its environment to OUT.
"""
import pickle
import sys

import numpy as np

from spinlogic import checks, noise

SETTINGS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
MODE_PAIRINGS = (("common", "independent"), ("independent", "common"))
TEXTBOOK_EPSILONS = (0.0, 1e-4, 1e-2, 3e307)  # 3e307: P's lambda * t overflows; Q's pulses are identities
TEXTBOOK_TRIALS = 40
# P's chunk is zero-padded to a multiple of 16 trials: 16 and 256 trials need no padding columns, 1 has 15 and 17
# spills one trial into a second block of 16; 125 is a sweep-fine chunk and 232 the last chunk of a 1000-trial point;
# at 37 the elementwise loops over a chunk's trials end on a partial SIMD vector
CHUNK_SIZES = (1, 16, 17, 37, 40, 125, 232, 256)


def trial_states(*entropies) -> np.ndarray:
    """The seed rows noise._draws takes, SeedSequence(entropy).generate_state(4, np.uint64) per trial: a trial then
    draws what default_rng(entropy) draws, whatever noise._substream_states computes."""
    return np.array([np.random.SeedSequence(entropy).generate_state(4, np.uint64) for entropy in entropies])


def compute() -> dict:
    """Assert that a chunk of each of CHUNK_SIZES trials gives its trials run alone, bit for bit, at epsilon 1e-2 in
    both mode pairings. Return the textbook cases' chunks (TEXTBOOK_TRIALS trials seeded [17, j]), P's floor chunks
    (the four products with every pulse lasting 1/2, and 1000 common-mode P trials at epsilon 1e-6 whose Q pulses
    last 1/2), the squared row norms of each bond's eigh V, which P's eigenbasis step uses, and verify's 13 errors
    by check name."""
    states = trial_states(*([5, j] for j in range(max(CHUNK_SIZES))))
    for modes in MODE_PAIRINGS:
        models = [noise.NoiseModel(1e-2, mode) for mode in modes]
        alone = zip(*(noise._run_chunk(*noise._draws(*models, row[None])) for row in states))
        alone = [np.concatenate(values) for values in alone]
        for n in CHUNK_SIZES:
            chunk = noise._run_chunk(*noise._draws(*models, states[:n]))
            assert all(np.array_equal(c, a[:n]) for c, a in zip(chunk, alone)), (n, modes)
    states = trial_states(*([17, trial] for trial in range(TEXTBOOK_TRIALS)))
    with np.errstate(all="ignore"):
        textbook = {(*modes, eps): noise._run_chunk(*noise._draws(*(noise.NoiseModel(eps, m) for m in modes), states))
                    for modes in MODE_PAIRINGS for eps in TEXTBOOK_EPSILONS}
    half, model = np.full((4, 1), 0.5), noise.NoiseModel(1e-6, "common")
    initial, p_durations, q_durations = noise._draws(model, model, noise._substream_states(0, 0, range(1000)))
    p_floor = (noise._run_chunk([0, 1, 2, 3], half, half),
               noise._run_chunk(initial, p_durations, np.full_like(q_durations, 0.5)))
    v_row_norms = [np.einsum("ij,ij->i", vectors, vectors) for vectors, _ in noise._p_factors()]
    verify_errors = {name: checks.run(measure)[0] for name, measure in checks.registry().items()}
    return {"textbook": textbook, "p_floor": p_floor, "v_row_norms": v_row_norms, "verify_errors": verify_errors}


if __name__ == "__main__":
    with open(sys.argv[1], "wb") as out:
        pickle.dump(compute(), out)
