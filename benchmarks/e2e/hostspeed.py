"""Host-speed probe: timings scaled to one reference speed of the host.

The benchmark's host is a 2-vCPU virtual machine on shared cores.  Its
speed drifts with what its neighbours run: the same query, run back to
back, took 60 ms in one minute and 80 ms in another, and whole 30 s
windows ran 1.6x slower than others.  No statistic over one window
removes that, so every window also times this probe, a fixed ~3 ms of
work that imports nothing from the program, between operations.  Each
operation's wall time is scaled by ``REFERENCE_MS`` over the median of
the ``SPAN`` probe samples nearest it in time: a regression in the
program moves the scaled time, a slower host moves it much less (the
README gives the spreads with and without scaling).

The probe mixes the three kinds of work a query does: interpreter loops
over small tuples, small numpy calls, and allocating python objects.  It
runs with the garbage collector off and frees all it allocates, so the
program's heap cannot change what it measures.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import Sequence, Tuple

import numpy as np

from stats import percentile

#: The probe's median time on the reference host (2 shared vCPUs at
#: 2.1 GHz, python 3.11, numpy 2.4), over 14,623 samples in 40 runs.
REFERENCE_MS = 3.2
#: Probe samples whose median scales one operation (or one set-up).
SPAN = 11

_rng = random.Random(0)
_OBJECTS = [[(_rng.random() * 40.0, _rng.random() * 40.0) for _ in range(5)] for _ in range(24)]
_ARRAYS = [np.array(points) for points in _OBJECTS]
_INTS = np.array([_rng.randrange(5000) for _ in range(4000)])


def _work() -> int:
    count = 0
    for i, a in enumerate(_OBJECTS):
        for b in _OBJECTS[i + 1:]:
            hit = False
            for x, y in a:
                for u, v in b:
                    if (x - u) ** 2 + (y - v) ** 2 <= 16.0:
                        hit = True
                        break
                if hit:
                    break
            count += hit
    for i in range(0, len(_ARRAYS), 2):
        diff = _ARRAYS[i][:, None, :] - _ARRAYS[(i * 7 + 3) % len(_ARRAYS)][None, :, :]
        count += int((np.einsum("ijk,ijk->ij", diff, diff) <= 16.0).sum())
    count += int(np.unique(_INTS).size)
    table = {str(i): (i, [i]) for i in range(3000)}
    return count + len(table)


def probe() -> float:
    """Run the probe once; its wall time in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe samples of one window, and the scale they give each moment.

    ``samples`` are ``(when, probe ms)`` pairs, ``when`` on the clock the
    operations are timed with.
    """

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("no host-speed probe samples")
        ordered = sorted(samples)
        self.times = [when for when, _ in ordered]
        self.ms = [ms for _, ms in ordered]

    def probe_ms(self, when: float) -> float:
        """Median of the ``SPAN`` samples nearest ``when``."""
        centre = bisect.bisect_left(self.times, when)
        low = max(0, min(centre - SPAN // 2, len(self.ms) - SPAN))
        return percentile(self.ms[low:low + SPAN], 0.5)

    def scale(self, when: float) -> float:
        """Factor that turns a wall time at ``when`` into reference time."""
        return REFERENCE_MS / self.probe_ms(when)
