"""Machine-speed probe used to put benchmark times on a reference speed.

On a 2-core machine shared with other tenants, measured over minutes, the
same work takes up to 40% longer in some spells than in others, on each core
independently.
``slowdown()`` times a fixed block of the benchmark's own code, so no change
to swiptrelay moves it, and divides by the block's time at the reference
speed.  run.py pins itself and its children to one core and probes in its
own process right before each repetition's child is spawned and right after
it exits.  Set-up, which follows the first probe within a second, is divided
by that probe's slowdown; the timed region by the mean of the two.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import gammainc, gammaincinv

# Seconds one block takes at the reference speed: the median block time over
# the probes of 267 repetitions of sweep_analytic and validate_matrix on the
# shared 2-core x86 machine (Python 3.11, numpy 2.4, scipy 1.17) the
# benchmark was defined on.  Times the benchmark reports are seconds at this
# speed, not seconds on the clock.
REFERENCE_S = 0.0109
BLOCKS = 10


def block_s() -> float:
    """Seconds for numpy calls on small arrays from a Python loop, and special
    functions and sorting on larger arrays: the kinds of work the workloads
    do.  A pure bytecode loop was left out; it tracked the workloads' times
    less closely."""
    small = np.linspace(0.0, 3.0, 257)
    p = np.linspace(0.001, 0.999, 5_000)
    t0 = time.perf_counter()
    for _ in range(200):
        np.log1p(np.exp(-2.0 * np.cosh(small)))
    x = gammaincinv(2.0, p)
    for _ in range(16):
        x = np.sort(x - (gammainc(2.0, x) - p) * np.exp(x - np.log(x)))
    return time.perf_counter() - t0


def slowdown() -> float:
    """Current slowdown of this core relative to the reference speed."""
    return statistics.fmean(block_s() for _ in range(BLOCKS)) / REFERENCE_S
