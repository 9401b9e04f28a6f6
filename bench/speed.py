"""Machine-speed sampling, so that times read the same on a busy machine.

On a shared virtual machine identical work was seen to take up to twice as
long from one second to the next, in CPU time as in wall time.  A
``SpeedSampler`` therefore interrupts the process every ``INTERVAL`` seconds
(``SIGALRM``) and times a fixed slice of pure-Python work of the kinds the
engines do (``work``).  ``normalize`` then turns the
wall time of an interval into reference time: it removes the sampler's own
ticks from the interval and scales the rest by ``REF_S`` over the mean tick
duration around the interval.  Times thus read as on a machine where one tick
of work takes ``REF_S`` seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.01
REF_S = 0.00035
# Ticks within this distance of an interval also estimate its speed, so a
# short interval still sees about ten of them.
WINDOW = 5 * INTERVAL

_FAMILY = ((5, 0, 7, 2), (1, 8, 3, 0), (6, 2, 2, 9), (0, 4, 9, 3), (7, 7, 0, 1),
           (2, 9, 5, 4), (9, 1, 4, 6), (3, 3, 8, 8), (4, 6, 1, 7))
# Diagonally dominant, so every leading minor and thus every pivot is nonzero.
_MATRIX = ((9, -1, 0, 3, 1, -2, 1), (1, 9, -2, 0, 2, 1, -1), (0, 2, 9, -3, 1, 2, 3),
           (3, 0, 2, 9, -1, 0, 2), (-1, 1, 3, 2, 9, -3, 1), (2, 2, -1, 1, 3, 9, 0),
           (1, -2, 0, 2, 1, 3, 9))


def work() -> None:
    """A meet closure of nine exponent vectors and a 7 x 7 fraction-free
    elimination: the kinds of work the engines do, in code of their own."""
    closure: set = set()
    for v in _FAMILY:
        closure |= {tuple(a if a < b else b for a, b in zip(v, g)) for g in closure}
        closure.add(v)
    m = [list(row) for row in _MATRIX]
    prev = 1
    for c in range(7):
        for i in range(c + 1, 7):
            m[i] = [(m[c][c] * x - m[i][c] * y) // prev for x, y in zip(m[i], m[c])]
        prev = m[c][c]


class SpeedSampler:
    """Periodic speed ticks while active; use as a context manager."""

    def __init__(self, tracer=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tracer = tracer

    def _tick(self, signum, frame):
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        if self.tracer is not None:
            self.tracer.record("probe", "tick", start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without ticks, reference seconds) of an interval."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        wall = end - start - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        near_lo = bisect.bisect_left(self.starts, start - WINDOW)
        near_hi = max(bisect.bisect_left(self.starts, end + WINDOW), near_lo + 1)
        near_lo = min(near_lo, len(self.starts) - 1)  # the first tick is at entry
        near = [self.ends[k] - self.starts[k] for k in range(near_lo, min(near_hi, len(self.starts)))]
        return wall, wall * REF_S * len(near) / sum(near)
