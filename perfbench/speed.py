"""Host speed, sampled while a pass runs, to put its times on a fixed scale.

On a shared host the speed of a vCPU moves with other tenants' load: a
fixed pure-Python loop took from 1x to 2.3x its fastest time, switching
every few seconds, and a slow spell can outlast a whole run.  Nothing in a
run can tell such a spell from slower code by timing the code alone.

So a worker times a small reference loop every PERIOD_S, from a timer
signal, throughout its pass.  The loop and the library slow down together:
next to one another, an oracle enumeration or a large IntPoly.shift took a
ratio of the loop's time whose interquartile range was 7% of its median,
while their own times spread by 50%.  An interval [t0, t1] is reported as
the time it would take at the reference speed: its duration, less the
sampler's own time inside it, times REF_S over the median loop time sampled
in and next to it.  On the host in its fast state the two agree.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.005
WINDOW_S = 0.05  # loop samples this close to an interval count for it
# the reference loop's time with the host in its fast state (2 vCPU,
# Python 3.11.7); times are reported at this speed
REF_S = 0.095e-3

_BIG = 3 ** 4000


def reference_work() -> int:
    """Dictionary, small-int and big-int work, about 0.1 ms; shares no code with indeq."""
    d: dict[int, int] = {}
    x = 1
    for i in range(300):
        d[i & 31] = d.get(i & 31, 0) + x
        x = (x * 7 + i) % 65521
    y = _BIG * (_BIG + x)
    return max(d.values()) + (y & 1)


class Sampler:
    def __init__(self) -> None:
        self.mid: list[float] = []  # midpoint of each loop sample
        self.took: list[float] = []  # the loop's time
        self.enter: list[float] = []  # the handler's start ...
        self.leave: list[float] = []  # ... and end
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        enter = time.perf_counter()
        reference_work()
        done = time.perf_counter()
        self.mid.append((enter + done) / 2)
        self.took.append(done - enter)
        self.enter.append(enter)
        self.leave.append(time.perf_counter())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median loop time in and next to [t0, t1], over REF_S."""
        lo = bisect.bisect_left(self.mid, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mid, t1 + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.took), lo + 1)
        return statistics.median(self.took[lo:hi]) / REF_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, without the sampler's own time."""
        own = 0.0
        for i in range(bisect.bisect_left(self.leave, t0), bisect.bisect_right(self.enter, t1)):
            own += min(self.leave[i], t1) - max(self.enter[i], t0)
        return (t1 - t0 - own) / self.slowdown(t0, t1)
