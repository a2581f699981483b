"""Machine-speed probe used to rescale measured command times.

On a shared machine the speed one thread gets drifts: on the 2-core host
this benchmark was written on, a fixed pure-Python loop ran up to 20 %
slower or faster from one 5-second window to the next, so raw pass times
of identical work spread by about 20 % between runs.  A fixed probe run
between commands slows and speeds up with the machine, so a command's
time divided by the probe speed around it drifts far less: on that host
the quartile spread of ten runs of paper-small fell from about 10 % raw
to about 5 % rescaled.  Raw times are always reported beside the
rescaled ones.
"""

import time

import numpy as np

# Seconds one probe unit is defined to take at reference speed; rescaled
# times read as seconds on a machine where the probe runs at this pace.
REFERENCE_UNIT_S = 30e-6

_D = np.random.default_rng(0).random((64, 64))
_ORDER = np.arange(64)


def _unit() -> float:
    """Scalar indexing into NumPy arrays from a Python loop, like the
    package's pure-Python kernels, plus one small vector call."""
    total = 0.0
    for i in range(63):
        total += _D[_ORDER[i], _ORDER[i + 1]]
    return total + float(np.sort(_D[0]).sum())


def probe(budget_s: float):
    """Run probe units for at least ``budget_s``; returns (seconds, units)."""
    units = 0
    started = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget_s:
            return elapsed, units


def rescale(seconds, probes):
    """Rescale command ``i``'s time by the pooled speed of the probes run
    just before and just after it (``probes`` has one more entry), so a
    longer probe counts for more."""
    out = []
    for i, t in enumerate(seconds):
        (s0, u0), (s1, u1) = probes[i], probes[i + 1]
        out.append(t * REFERENCE_UNIT_S * (u0 + u1) / (s0 + s1))
    return out
