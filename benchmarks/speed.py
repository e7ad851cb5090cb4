"""How fast the machine runs right now, from a fixed calibration task.

On a shared machine the speed of the same code drifts by up to a factor of
two between runs, and a slow spell can last longer than a whole run, so
raw times cannot resolve a ten percent change.  The probe runs a fixed mix
of interpreted arithmetic, small numpy calls and one streaming numpy pass
every ``INTERVAL_S`` seconds, from a SIGALRM handler, so it samples the
machine's speed evenly through the run, also during long calls.  The time
the probe takes is subtracted from every timing it lands in, and each
timing is scaled by ``REFERENCE_S`` over the median duration of the probes
around it: it reads as seconds on a machine that runs the probe in
exactly 2 ms.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.002
INTERVAL_S = 0.2

_LARGE = np.linspace(0.0, 1.0, 50_000)
_SMALL = np.linspace(0.0, 1.0, 8)


def calibration_task() -> float:
    total = 0.0
    for i in range(4000):
        total += math.sqrt(i)
    for _ in range(80):
        total += float(np.sum(_SMALL * 1.5))
    return total + float(np.exp(-_LARGE).sum()) + float(np.exp(_LARGE).sum())


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_task()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probe ran inside [t0, t1]."""
        total = 0.0
        i = bisect.bisect_right(self.ends, t0)
        while i < len(self.starts) and self.starts[i] < t1:
            total += min(self.ends[i], t1) - max(self.starts[i], t0)
            i += 1
        return total

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns seconds measured in [t0, t1] into reference
        seconds, from the probes within a second of the interval (all probes
        when fewer than five fall there)."""
        lo = bisect.bisect_left(self.starts, t0 - 1.0)
        hi = bisect.bisect_right(self.starts, t1 + 1.0)
        if hi - lo < 5:
            lo, hi = 0, len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if not durations:
            calibration_task()
            start = time.perf_counter()
            calibration_task()
            durations = [time.perf_counter() - start]
        return REFERENCE_S / statistics.median(durations)
