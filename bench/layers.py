"""Per-layer timings, taken from outside by calling each module's public functions.

Every timing is the median over repeated batches of the per-call time, in
microseconds, with caches already warm. The sector is the six-spin
two-excitation sector (dimension 15) that the swap and the error sweep use;
"full" is the 64-dimensional full space that the verify oracle uses.
"""
from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from workloads import run_cli

BATCH_SECONDS = 0.002
MIN_SAMPLES = 5


def _batch_size(func) -> int:
    """Smallest power of two of calls that takes at least BATCH_SECONDS."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            func()
        if time.perf_counter() - start >= BATCH_SECONDS:
            return batch
        batch *= 2


def _batch_time(func, batch: int) -> float:
    start = time.perf_counter()
    for _ in range(batch):
        func()
    return (time.perf_counter() - start) / batch


def per_call_us(func, budget_s: float) -> float:
    """Median per-call time of `func()` in microseconds over batches filling `budget_s`."""
    batch = _batch_size(func)
    samples = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        samples.append(_batch_time(func, batch))
    return statistics.median(samples) * 1e6


def paired_difference_s(func, base, budget_s: float) -> float:
    """Median over adjacent batch pairs of the per-call time of `func()` minus `base()`.

    The machine's speed drifts by tens of percent over seconds, so two medians
    taken apart can differ by more than a small cost; adjacent pairs cancel the
    drift. The order within a pair alternates.
    """
    batch = _batch_size(func)
    diffs = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(diffs) < MIN_SAMPLES:
        if len(diffs) % 2:
            base_time = _batch_time(base, batch)
            func_time = _batch_time(func, batch)
        else:
            func_time = _batch_time(func, batch)
            base_time = _batch_time(base, batch)
        diffs.append(func_time - base_time)
    return statistics.median(diffs)


def layer_timings(spinlogic, check_names: list[str], scratch_csv, total_budget_s: float) -> dict[str, float]:
    """Every per-layer `*_us` metric except the cold simulate, which needs a fresh process."""
    chain, encoding, gates, linalg, noise = (
        spinlogic.chain, spinlogic.encoding, spinlogic.gates, spinlogic.linalg, spinlogic.noise
    )
    frame = encoding.pair_frame()
    sector = frame.subspace
    vec = frame.vectors[:, 0]
    block = frame.vectors[:, :4]
    full = chain.full_space(6)
    vec_full = chain.embed_in_full_space(vec, sector)
    hamiltonian = chain.build_bond_hamiltonian(2, sector)
    swap = gates.swap_sequence()
    independent = noise.NoiseModel(1e-3, mode="independent")
    common = noise.NoiseModel(1e-3, mode="common")
    rng = np.random.default_rng(0)
    perturbed = noise.perturb(swap, independent, rng)
    trial = itertools.count()
    small_sweep = noise.sweep(noise.DEFAULT_EPS_GRID, n_runs=8, seed=0, n_workers=1)

    def csv_roundtrip():
        noise.write_csv(small_sweep, scratch_csv)
        noise.read_csv(scratch_csv)

    timed = {
        "chain.apply_bond_pulse.vec_us": lambda: chain.apply_bond_pulse(2, 0.5, vec, sector),
        "chain.apply_bond_pulse.block_us": lambda: chain.apply_bond_pulse(2, 0.5, block, sector),
        "chain.apply_bond_pulse.full_us": lambda: chain.apply_bond_pulse(2, 0.5, vec_full, full),
        "linalg.eig_hermitian_us": lambda: linalg.eig_hermitian(hamiltonian),
        "linalg.propagator_us": lambda: linalg.propagator(hamiltonian, 0.5),
        "gates.simulate.swap_vec_us": lambda: gates.simulate(swap, vec, sector),
        "gates.simulate.swap_block_us": lambda: gates.simulate(swap, block, sector),
        "gates.logical_unitary.swap_us": lambda: gates.logical_unitary(swap, frame, n_columns=4),
        "encoding.pair_frame_us": encoding.pair_frame,
        "noise.perturb.independent_us": lambda: noise.perturb(swap, independent, rng),
        "noise.perturb.common_us": lambda: noise.perturb(swap, common, rng),
        "noise.substream_us": lambda: np.random.default_rng(
            np.random.SeedSequence([0, 0, next(trial)])
        ),
        "noise.probability_error_us": lambda: noise.probability_error(0, perturbed),
        "noise.phase_error_us": lambda: noise.phase_error(perturbed),
        "noise.fit_power_law_us": lambda: noise.fit_power_law(small_sweep, "P"),
        "noise.csv_roundtrip_us": csv_roundtrip,
    }
    for name in check_names:
        timed[f"cli.verify.{name}_us"] = lambda name=name: run_cli(spinlogic, ["verify", "--check", name])

    budget_s = total_budget_s / (len(timed) + 1)
    out = {name: per_call_us(func, budget_s) for name, func in timed.items()}
    # the per-trial reduction: everything phase_error does beyond propagating the block
    out["noise.reduce_us"] = 1e6 * paired_difference_s(
        timed["noise.phase_error_us"], timed["gates.simulate.swap_block_us"], budget_s
    )
    return out


def cold_simulate_us(spinlogic) -> float:
    """First swap simulate in this process: pays the bond eigensystem cache fill."""
    frame = spinlogic.encoding.pair_frame()
    swap = spinlogic.gates.swap_sequence()
    start = time.perf_counter()
    spinlogic.gates.simulate(swap, frame.vectors[:, 0], frame.subspace)
    return (time.perf_counter() - start) * 1e6
