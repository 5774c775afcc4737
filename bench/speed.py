"""Machine-speed calibration for the end-to-end timings.

The shared 2-vCPU machine the benchmark was built on runs the same code up to
twice as fast at one moment as at the next, and a run's median follows the
load during that run: raw timing medians of ten runs spread by 10-33 %
(quartile distance over median). A fixed kernel of interpreter work and small
numpy operations, which shares no code with spinlogic, slows down with the
workload. Timing it on both sides of each stretch of calls and scaling the
calls' times by REFERENCE_S / kernel time gives times at one reference speed.
On six sweep-default runs this cut the spread of the median point time from
13 % to 4 %. A change to spinlogic cannot change the kernel, so the scaled
times still compare commits. The raw times are printed too.
"""
from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed: about its time on an unloaded
# moment of the machine that recorded baseline.json
REFERENCE_S = 0.002

_MATRIX = np.random.default_rng(0).standard_normal((15, 15))
_VECTOR = np.ones(15)


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel (a few milliseconds)."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(300):
        np.exp(-1j * (_MATRIX @ _VECTOR))
    return time.perf_counter() - start
