"""Host-speed probe: a fixed reference computation timed from a timer signal.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds, as neighbours load the caches and sibling hardware threads.  Every
INTERVAL seconds a SIGALRM handler times :func:`reference_kernel`, a
small NumPy loop and a float JSON round trip.  An op's latency
divided by the reference time measured during it (or just before it) is
steady across such drifts, where the raw latency is not.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1  # seconds between samples


def reference_kernel() -> float:
    """About 3 ms of small-array NumPy arithmetic and float JSON, driven from Python.

    The mix follows the benchmark's ops: integrator loops over small arrays,
    and JSON encoding and decoding of point lists.
    """
    y = np.linspace(0.5, 1.5, 13)
    v = np.zeros(13)
    for _ in range(250):
        a = -0.5 * y**3 + 0.3 * y
        y = y + 0.01 * v
        v = v + 0.01 * a
    points = json.loads(json.dumps(np.outer(y, v).tolist() * 8))
    return float(y.sum()) + points[0][0]


class SpeedProbe:
    """Context manager sampling the reference kernel every INTERVAL seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """(latency of [t0, t1) less the samples taken in it, reference time).

        The reference time is the mean of the samples taken in the
        interval, or the last one before it when none was.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        ref = statistics.fmean(inside) if inside else self.durations[max(lo - 1, 0)]
        return t1 - t0 - sum(inside), ref

    def reference_s(self) -> float:
        return statistics.median(self.durations)
