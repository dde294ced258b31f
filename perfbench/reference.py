"""A fixed reference loop, timed in each command's process.

The VM this benchmark was written on changes speed by up to 2x for seconds
to minutes at a time (see README.md), so raw wall times of runs taken
minutes apart spread too widely to compare two commits. The loop below does
the same amount of work every time, shaped like epicast's hot paths (a
small ODE step loop, batched small matrix products and a linear filter),
but calls none of epicast's code. invoke.py runs it just before and just
after the command; dividing the command's wall time by its mean time
cancels part of the machine's speed swing and none of a change to epicast.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import signal

_RNG = np.random.default_rng(0)
_A = _RNG.random((6, 20, 87, 5))
_B = _RNG.random((6, 20, 5, 3))
_SERIES = _RNG.normal(size=90)
_AR = np.array([1.0, 0.3, -0.2])


def duration() -> float:
    """Seconds one pass of the reference loop takes now."""
    start = time.perf_counter()
    s = np.array([0.99, 0.01, 0.0])
    for _ in range(70000):
        flow = np.array([0.3 * s[0] * s[1], 0.1 * s[1]])
        s = s + 0.01 * np.array([-flow[0], flow[0] - flow[1], flow[1]])
    for _ in range(1000):
        h = np.tanh(_A @ _B)
        h *= 1.0 - h
    for _ in range(10000):
        e = signal.lfilter([1.0], _AR, _SERIES)
        float(e @ e)
    return time.perf_counter() - start
