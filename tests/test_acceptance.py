"""Acceptance gate: one test per release criterion, each printing a verdict line.

Criteria 1-5 run the analytic checks of `spinlogic verify` by name, from the
one registry in spinlogic.checks; criterion 6 asserts the band verdict that
`spinlogic sweep` prints. Run with `pytest tests/test_acceptance.py -v -s`
to see the measured values next to their bounds.
"""
import time

from spinlogic import checks, noise

REGISTRY = checks.registry()


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def run_checks(*names: str) -> tuple[bool, str]:
    """Run registry checks by name: whether all pass, and the lines `spinlogic verify` prints for them."""
    lines, failures = checks.report(REGISTRY, list(names))
    return failures == 0, "; ".join(lines)


def test_criterion_1_perfect_swap_on_the_logical_basis():
    start = time.perf_counter()
    ok, verdicts = run_checks("swap-gate")
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0, f"ideal swap on the four logical products: {verdicts} in {elapsed:.3f}s (bound 1s)")


def test_criterion_2_flip_analytics():
    report(2, *run_checks("flip-annihilation", "flip-gate"))


def test_criterion_3_hadamard_and_phase_gates():
    report(3, *run_checks("hadamard-gate", "phase-gate"))


def test_criterion_4_permutation_phases():
    report(4, *run_checks("spin-swap-phase", "cycle-permutation", "swap-gate"))


def test_criterion_5_sector_evolution_matches_the_full_space():
    report(5, *run_checks("full-space-oracle"))


def test_criterion_6_error_scaling_reproduction(default_sweep):
    points, elapsed = default_sweep
    lines, holds = noise.report(points)
    report(6, holds and elapsed < 120.0,
           f"{'; '.join(lines)}; 8x{points[0].n_runs} trials in {elapsed:.1f}s (bound 120s)")


def test_criterion_7_reproducibility_and_conservation(default_sweep, lone_trial_sweep):
    points, _ = default_sweep
    norm_worst = max(p.max_norm_error for p in points)

    # CHUNK_TRIALS + 3 runs span two chunks: chunking must not move a bit either;
    # a seed of 2**40 + 3 splits into two 32-bit words; the last run swaps the noise modes
    runs = ((40, 1234), (noise.CHUNK_TRIALS + 3, 1234), (40, 2**40 + 3), (40, 1234, "independent", "common"))
    sweeps = [noise.sweep([3e-4, 3e-3], *run) for run in runs]
    identical = all(got == lone_trial_sweep([3e-4, 3e-3], *run) for got, run in zip(sweeps, runs))
    seeded = sweeps[0] != sweeps[2]

    report(
        7,
        norm_worst <= 1e-12 and identical and seeded,
        f"norm conserved every trial (worst {norm_worst:.3e}, bound 1e-12); "
        f"sweep equals its trials run alone in reverse order, in both mode pairings: {identical}; "
        f"another seed gives other points: {seeded}",
    )
