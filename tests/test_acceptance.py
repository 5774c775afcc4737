"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values
next to their bounds.
"""
import cmath
import math
import time

import numpy as np

from spinlogic import chain, encoding, gates, noise

PI = math.pi


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_perfect_swap_on_the_logical_basis(frame_ab):
    start = time.perf_counter()
    worst = 0.0
    phase = cmath.exp(1j * PI / 4)
    for i in range(4):
        psi = gates.simulate(gates.swap_sequence(), frame_ab.vectors[:, i], frame_ab.subspace)
        target = frame_ab.vectors[:, gates.SWAP_PERMUTATION[i]]
        worst = max(worst, float(np.abs(psi - phase * target).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"ideal swap maps all four logical basis states, max error {worst:.3e} "
        f"(bound 1e-12) in {elapsed:.3f}s (bound 1s)",
    )


def test_criterion_2_flip_analytics(frame_a):
    one = encoding.encode(np.array([1.0, 0.0]), frame_a)
    worst_c0 = 0.0
    for solution in (1, 2):
        seq = gates.flip_sequence_uncorrected("A", solution)
        amps, _ = encoding.decode(gates.simulate(seq, one, frame_a.subspace), frame_a, 2)
        worst_c0 = max(worst_c0, abs(amps[0]))
        flipped = abs(abs(amps[1]) - 1.0)
        worst_c0 = max(worst_c0, flipped)
    gate_err = float(
        np.abs(gates.logical_unitary(gates.flip_sequence("A"), frame_a) - gates.analytic_reference("F")).max()
    )
    report(
        2,
        worst_c0 <= 1e-13 and gate_err <= 1e-12,
        f"both timing solutions flip (residual {worst_c0:.3e}, bound 1e-13); "
        f"corrected flip matches exp(i*{gates.FLIP_PHASE:.6f})*X to {gate_err:.3e} (bound 1e-12)",
    )


def test_criterion_3_hadamard_and_phase_gates(frame_a):
    had_err = float(
        np.abs(gates.logical_unitary(gates.hadamard_sequence("A"), frame_a) - gates.analytic_reference("H")).max()
    )
    phase_err = 0.0
    for k in range(9):  # includes 0, pi and 2*pi
        theta = k * PI / 4
        got = gates.logical_unitary(gates.phase_sequence(theta), frame_a)
        phase_err = max(phase_err, float(np.abs(got - gates.analytic_reference("P", theta)).max()))
    report(
        3,
        had_err <= 1e-12 and phase_err <= 1e-12,
        f"hadamard error {had_err:.3e}, phase-gate error over 9 angles {phase_err:.3e} (bounds 1e-12)",
    )


def test_criterion_4_permutation_phases(frame_ab):
    # half-period pulse: exchange with phase exp(-i*pi/4) on every two-spin state
    sub2 = chain.full_space(2)
    swap_err = 0.0
    phase = cmath.exp(1j * gates.SPIN_SWAP_PHASE)
    for pattern in range(4):
        start = np.zeros(4, dtype=np.complex128)
        start[pattern] = 1.0
        out = chain.apply_bond_pulse(0, 0.5, start, sub2)
        exchanged = ((pattern & 1) << 1) | ((pattern >> 1) & 1)
        swap_err = max(swap_err, abs(out[exchanged] - phase))

    sub = frame_ab.subspace
    cycle_err = 0.0
    cycle_phase = cmath.exp(1j * gates.CYCLE_PHASE)
    for pattern in sub.states:
        start = np.zeros(sub.dim, dtype=np.complex128)
        start[sub.index_of(pattern)] = 1.0
        out = gates.simulate(gates.cycle_sequence(), start, sub)
        shifted = ((pattern << 1) | (pattern >> 5)) & 0b111111
        cycle_err = max(cycle_err, abs(out[sub.index_of(shifted)] - cycle_phase))

    swap_overall = float(
        np.abs(
            gates.logical_unitary(gates.swap_sequence(), frame_ab, 4) - gates.analytic_reference("SWAP")
        ).max()
    )
    report(
        4,
        max(swap_err, cycle_err, swap_overall) <= 1e-12,
        f"spin-swap phase {swap_err:.3e}, cyclic-shift {cycle_err:.3e}, "
        f"qubit-swap (phase pi/4) {swap_overall:.3e} (bounds 1e-12)",
    )


def test_criterion_5_sector_evolution_matches_the_full_space(frame_ab):
    rng = np.random.default_rng(2718)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    psi0 = encoding.encode(amps, frame_ab)
    in_sector = gates.simulate(gates.swap_sequence(), psi0, frame_ab.subspace)
    full = chain.full_space_oracle(gates.swap_sequence(), chain.embed_in_full_space(psi0, frame_ab.subspace))
    agreement = float(np.abs(chain.restrict_to_sector(full, frame_ab.subspace) - in_sector).max())
    leakage = abs(1.0 - chain.sector_weight(full, frame_ab.subspace))
    report(
        5,
        agreement <= 1e-12 and leakage <= 1e-12,
        f"15-state evolution vs 64-state oracle: max difference {agreement:.3e}, "
        f"sector leakage {leakage:.3e} (bounds 1e-12)",
    )


def test_criterion_6_error_scaling_reproduction(default_sweep):
    points, elapsed = default_sweep
    fit_p = noise.fit_power_law(points, "P")
    fit_q = noise.fit_power_law(points, "Q")
    p_ok = (
        noise.EXPONENT_BAND_P[0] <= fit_p.exponent <= noise.EXPONENT_BAND_P[1]
        and noise.AMPLITUDE_BAND_P[0] <= fit_p.amplitude <= noise.AMPLITUDE_BAND_P[1]
    )
    q_ok = (
        noise.EXPONENT_BAND_Q[0] <= fit_q.exponent <= noise.EXPONENT_BAND_Q[1]
        and noise.AMPLITUDE_BAND_Q[0] <= fit_q.amplitude <= noise.AMPLITUDE_BAND_Q[1]
    )
    report(
        6,
        p_ok and q_ok and elapsed < 120.0,
        f"P: {fit_p.amplitude:.4g}*eps^{fit_p.exponent:.4f} (chi2 {fit_p.chi2:.3g}) in "
        f"bands {noise.AMPLITUDE_BAND_P}/{noise.EXPONENT_BAND_P}; "
        f"Q: {fit_q.amplitude:.4g}*eps^{fit_q.exponent:.4f} (chi2 {fit_q.chi2:.3g}) in "
        f"bands {noise.AMPLITUDE_BAND_Q}/{noise.EXPONENT_BAND_Q}; "
        f"8x{points[0].n_runs} trials in {elapsed:.1f}s (bound 120s)",
    )


def test_criterion_7_reproducibility_and_conservation(default_sweep, lone_trial_sweep):
    points, _ = default_sweep
    norm_worst = max(p.max_norm_error for p in points)

    clean = noise.sweep([0.0], n_runs=50)[0]

    identical = noise.sweep([3e-4, 3e-3], n_runs=40, seed=1234) == lone_trial_sweep([3e-4, 3e-3], 40, 1234)

    report(
        7,
        norm_worst <= 1e-12 and clean.mean_p <= 1e-12 and clean.mean_q <= 1e-12 and identical,
        f"norm conserved every trial (worst {norm_worst:.3e}, bound 1e-12); "
        f"zero-noise errors {clean.mean_p:.3e}/{clean.mean_q:.3e} (bound 1e-12); "
        f"sweep equals its trials run alone in reverse order: {identical}",
    )
