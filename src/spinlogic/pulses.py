"""Pulse primitives: a bond index plus a duration, and ordered sequences of them.

Durations are in units of the exchange period (the bond Hamiltonian carries the
2*pi); catalog entries are canonical in [0, 4), but perturbed copies may leave
that window, including going negative (inverse evolution), so no range is
enforced here. The optional tag is a symbolic duration label ("t1", "1/2", ...)
used by schedule export; it never feeds back into the numerics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Pulse:
    bond: int
    duration: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.bond < 0:
            raise ValueError(f"bond index must be nonnegative, got {self.bond}")
        if not math.isfinite(self.duration):
            raise ValueError(f"pulse duration must be finite, got {self.duration!r}")


@dataclass(frozen=True)
class PulseSequence:
    """Pulses listed in execution order (first entry acts first)."""

    name: str
    pulses: tuple[Pulse, ...]

    def __iter__(self):
        return iter(self.pulses)

    def __len__(self) -> int:
        return len(self.pulses)

    def product_string(self) -> str:
        """Operator-product notation, rightmost factor acting first."""
        factors = [f"V{p.bond}({p.tag or format(p.duration, '.6g')})" for p in reversed(self.pulses)]
        return " ".join(factors) if factors else "1"

    def schedule_text(self) -> str:
        """One line per pulse in execution order: bond, symbolic tag, exact decimal."""
        lines = [f"{p.bond} {p.tag or 'dt'} {p.duration:.17g}" for p in self.pulses]
        return "\n".join(lines) + ("\n" if lines else "")
