"""The check registry behind `spinlogic verify`: every check passes, and each can fail."""
import cmath
import math

import numpy as np
import pytest

from spinlogic import chain, checks, cli, gates
from spinlogic.pulses import Pulse, PulseSequence


@pytest.mark.parametrize("name", list(checks.registry()))
def test_every_check_is_within_its_tolerance(name, kernel_outputs):
    # under each of kernel_variance's settings; the largest error is 1.05e-15 (swap-gate), 95 times below TOLERANCE
    errors = {setting: outputs["verify_errors"][name] for setting, outputs in kernel_outputs.items()}
    assert all(error <= checks.TOLERANCE for error in errors.values()), errors


def test_running_every_check_prints_nothing(capsys):
    # a check hands its note to the caller; only `verify` prints it
    results = {name: checks.run(measure) for name, measure in checks.registry().items()}
    assert capsys.readouterr() == ("", "")
    assert results["swap-phase"][-1].startswith("measured overall swap phase")


def test_a_registry_evolves_the_swap_once(monkeypatch):
    # 6 flip + 4 flip-gate + 6 hadamard + 9 phase + 1 spin-swap + 5 cycle pulses, then 15 for all three swap checks;
    # every pulse, apply_bond_pulse's too, goes through chain.evolve
    kernel, calls = chain.evolve, []
    monkeypatch.setattr(chain, "evolve", lambda bonds, *args: calls.append(list(bonds)) or kernel(bonds, *args))
    for measure in checks.registry().values():
        checks.run(measure)
    assert sum(map(len, calls)) == 46
    assert [bonds for bonds in calls if len(bonds) == 15] == [[pulse.bond for pulse in gates.swap_sequence()]]


def wrong_kernel(monkeypatch):
    """A sector kernel that runs bond 2 backwards; only an independent oracle notices."""
    kernel = chain.evolve
    monkeypatch.setattr(chain, "evolve", lambda bonds, durations, state, sub: kernel(
        bonds, [-t if bond == 2 else t for bond, t in zip(bonds, durations)], state, sub))


def wrong_swap_map(monkeypatch):
    """Every subspace's bond-2 swap map exchanges spins 2 and 4, as a wrong bit formula would: the sector kernel reads
    it, and only an oracle that builds its own swap notices (one reading any Subspace's maps would agree)."""
    right = chain.Subspace.bond_swaps.func

    def swaps(sub):
        maps = right(sub)
        if sub.n_spins < 5:
            return maps
        wrong = [sub.index_of(p ^ (((p >> 2) ^ (p >> 4)) & 1) * 0b10100) for p in sub.states]
        return (*maps[:2], np.array(wrong), *maps[3:])

    monkeypatch.setattr(chain.Subspace, "bond_swaps", property(swaps))


def leaky_oracle(monkeypatch):
    """An oracle that leaks amplitude 1e-7 onto the empty pattern, off the two-excitation sector."""
    oracle = chain.full_space_oracle

    def leaked(sequence, state):
        psi = oracle(sequence, state)
        psi[0] += 1e-7
        return psi / np.linalg.norm(psi)

    monkeypatch.setattr(chain, "full_space_oracle", leaked)


def broken_sequence(monkeypatch, builder, broken):
    pulses = getattr(gates, builder)().pulses
    monkeypatch.setattr(gates, builder, lambda: PulseSequence(builder, broken(pulses)))


# The faults nearest TOLERANCE. A relative corruption r of t2 fails flip-annihilation from r = 4.7e-14 and flip-gate
# from 4.5e-14 (errors 2.1e-13 and 2.2e-13 at r = 1e-13); a first swap pulse of 1/2 + d fails swap-gate and
# swap-phase from d = 2.2e-14 (2.3e-13 at d = 5e-14). flip-gate's and the swap checks' faults pass a tolerance of 1e-12.
@pytest.mark.parametrize(
    "name, fault",
    [
        ("hadamard-gate", lambda mp: mp.setattr(gates, "T6", gates.T6 + 0.01)),
        ("phase-gate", lambda mp: mp.setattr(gates, "phase_gate_phase", lambda theta: 1.5 * math.pi - 0.5 * theta)),
        ("spin-swap-phase", lambda mp: mp.setattr(gates, "SPIN_SWAP_PHASE", math.pi / 4)),
        ("swap-gate", lambda mp: broken_sequence(mp, "swap_sequence", lambda pulses: pulses[1:])),
        ("swap-phase", lambda mp: broken_sequence(mp, "swap_sequence", lambda pulses: pulses[1:])),
        ("swap-gate", lambda mp: broken_sequence(
            mp, "swap_sequence", lambda p: (Pulse(p[0].bond, 0.5 + 5e-14, p[0].tag),) + p[1:])),
        ("swap-phase", lambda mp: broken_sequence(
            mp, "swap_sequence", lambda p: (Pulse(p[0].bond, 0.5 + 5e-14, p[0].tag),) + p[1:])),
        ("flip-annihilation", lambda mp: mp.setattr(gates, "T2", gates.T2 * (1 + 1e-13))),
        ("flip-gate", lambda mp: mp.setattr(gates, "T2", gates.T2 * (1 + 1e-13))),
        ("logical-projection", lambda mp: mp.setattr(gates, "OMEGA", -math.sqrt(2) * math.pi)),
        ("flip-phase-condition", lambda mp: mp.setattr(gates, "T4", gates.T4 + 0.01)),
        ("full-space-oracle", wrong_kernel),
        ("full-space-oracle", wrong_swap_map),
        ("full-space-oracle", leaky_oracle),
        ("cycle-permutation", lambda mp: broken_sequence(
            mp, "cycle_sequence", lambda p: p[:2] + (Pulse(p[2].bond, 0.4, p[2].tag),) + p[3:])),
        ("cycle-permutation", lambda mp: broken_sequence(mp, "cycle_sequence", lambda pulses: pulses[:-1])),
    ],
    ids=["hadamard-T6", "phase-gate-phase", "spin-swap-phase", "swap-one-pulse-dropped",
         "swap-phase-one-pulse-dropped", "swap-first-pulse-long-by-5e-14", "swap-phase-first-pulse-long-by-5e-14",
         "flip-annihilation-t2-off-by-1e-13", "flip-gate-t2-off-by-1e-13", "omega", "flip-T4",
         "oracle-wrong-kernel", "oracle-wrong-swap-map", "oracle-leak", "cycle-one-pulse-at-0.4",
         "cycle-one-pulse-dropped"],
)
def test_a_fault_pushes_the_check_above_its_tolerance(capsys, monkeypatch, name, fault):
    fault(monkeypatch)
    error, ok, _ = checks.run(checks.registry()[name])
    assert error > checks.TOLERANCE and not ok
    if name == "cycle-permutation":
        # the same error as fifteen one-pattern evolutions, so no column goes unchecked
        sub = chain.enumerate_subspace(6, 2)
        one_by_one = 0.0
        for j, pattern in enumerate(sub.states):
            final = gates.simulate(gates.cycle_sequence(), np.eye(sub.dim)[:, j], sub)
            final[sub.index_of(((pattern << 1) | (pattern >> 5)) & 0b111111)] -= cmath.exp(1j * gates.CYCLE_PHASE)
            one_by_one = max(one_by_one, float(np.abs(final).max()))
        assert error == pytest.approx(one_by_one, rel=1e-12)
    assert cli.main(["verify", "--check", name]) == 1
    # the verdict line, after the note a check may print
    assert capsys.readouterr().out.splitlines()[-2].startswith(f"FAIL  {name}")
