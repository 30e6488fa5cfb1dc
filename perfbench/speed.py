"""Call times measured against a fixed probe of the machine's speed.

The machine's speed changes from one second to the next (README.md), so a
call's raw time says as much about the moment as about the call.  Every
timed call runs between two runs of ``probe_s``, a fixed piece of
pure-Python and numpy work that touches no cubicnls code; the call and the
mean of its two probes see the same speed, and their ratio does not depend
on it.  A call's time is the
median of its ratios over the rounds of a run, in seconds at the speed at
which the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's best time on the 2-core machine of the README's figures
PROBE_REF_S = 1.8e-4
_X = np.linspace(0.0, 1.0, 64)


def probe_s() -> float:
    """Seconds taken by the probe now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    y = _X
    for _ in range(30):
        y = np.sin(y) + _X
    return time.perf_counter() - t0


def at_reference_speed(times, probes) -> np.ndarray:
    """Median over the first axis of time / probe, in reference seconds."""
    return np.median(np.asarray(times) / np.asarray(probes), axis=0) * PROBE_REF_S
