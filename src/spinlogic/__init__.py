"""Exchange-pulse gate simulator for logical qubits in a spin-1/2 chain."""
from . import chain, checks, encoding, gates, linalg, noise, pulses
from .pulses import Pulse, PulseSequence

__all__ = [
    "chain",
    "checks",
    "encoding",
    "gates",
    "linalg",
    "noise",
    "pulses",
    "Pulse",
    "PulseSequence",
]

__version__ = "0.1.0"
