"""The check registry behind `spinlogic verify`: every check passes, and each can fail."""
import cmath
import math

import numpy as np
import pytest

from spinlogic import chain, checks, cli, gates
from spinlogic.pulses import Pulse, PulseSequence


@pytest.mark.parametrize("name", list(checks.registry()))
def test_every_check_is_within_its_tolerance(name):
    check = checks.registry()[name]
    error, ok, _ = check.run()
    assert error <= check.tolerance and ok


def test_running_every_check_prints_nothing(capsys):
    # a check hands its note to the caller; only `verify` prints it
    results = {name: check.run() for name, check in checks.registry().items()}
    assert capsys.readouterr() == ("", "")
    assert results["swap-phase"][-1].startswith("measured overall swap phase")


def test_a_registry_evolves_the_swap_once(monkeypatch):
    # 6 flip + 4 flip-gate + 6 hadamard + 9 phase + 1 spin-swap + 5 cycle pulses, then 15 for all three swap checks
    kernel, calls = chain.apply_bond_pulse, []
    monkeypatch.setattr(chain, "apply_bond_pulse", lambda *args: calls.append(args) or kernel(*args))
    for check in checks.registry().values():
        check.run()
    assert len(calls) == 46


def wrong_kernel(monkeypatch):
    """A sector kernel that runs bond 2 backwards; only an independent oracle notices."""
    kernel = chain.apply_bond_pulse
    monkeypatch.setattr(chain, "apply_bond_pulse",
                        lambda bond, t, state, sub: kernel(bond, -t if bond == 2 else t, state, sub))


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


@pytest.mark.parametrize(
    "name, fault",
    [
        ("hadamard-gate", lambda mp: mp.setattr(gates, "T6", gates.T6 + 0.01)),
        ("phase-gate", lambda mp: mp.setattr(gates, "phase_gate_phase", lambda theta: 1.5 * math.pi - 0.5 * theta)),
        ("spin-swap-phase", lambda mp: mp.setattr(gates, "SPIN_SWAP_PHASE", math.pi / 4)),
        ("swap-gate", lambda mp: broken_sequence(mp, "swap_sequence", lambda pulses: pulses[1:])),
        ("swap-phase", lambda mp: broken_sequence(mp, "swap_sequence", lambda pulses: pulses[1:])),
        ("logical-projection", lambda mp: mp.setattr(gates, "OMEGA", -math.sqrt(2) * math.pi)),
        ("flip-phase-condition", lambda mp: mp.setattr(gates, "T4", gates.T4 + 0.01)),
        ("full-space-oracle", wrong_kernel),
        ("full-space-oracle", leaky_oracle),
        ("cycle-permutation", lambda mp: broken_sequence(
            mp, "cycle_sequence", lambda p: p[:2] + (Pulse(p[2].bond, 0.4, p[2].tag),) + p[3:])),
        ("cycle-permutation", lambda mp: broken_sequence(mp, "cycle_sequence", lambda pulses: pulses[:-1])),
    ],
    ids=["hadamard-T6", "phase-gate-phase", "spin-swap-phase", "swap-one-pulse-dropped",
         "swap-phase-one-pulse-dropped", "omega", "flip-T4",
         "oracle-wrong-kernel", "oracle-leak", "cycle-one-pulse-at-0.4", "cycle-one-pulse-dropped"],
)
def test_a_fault_pushes_the_check_above_its_tolerance(capsys, monkeypatch, name, fault):
    fault(monkeypatch)
    check = checks.registry()[name]
    error, ok, _ = check.run()
    assert error > check.tolerance and not ok
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
