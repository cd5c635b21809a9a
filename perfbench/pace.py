"""Reference-speed timing: wall time corrected for the drift of the core's speed.

On a shared host the speed of one core drifts: the same pure-Python loop
takes 16 ms in one second and 24 ms the next, so a pass's wall time varies
by a third between runs while the work it does is identical.  `Pace` takes
the speed as it goes.  A timer interrupts the measured code every
`PERIOD_S` seconds and times `probe`, a fixed pure-Python loop.  Each
stretch of measured time between two probes is divided by the local
slowdown: the median time of the `2 * WINDOW + 1` nearest probes over
`REF_PROBE_S`.  The sum is the time the code would have taken on a core at
the reference speed, the speed at which `probe` takes `REF_PROBE_S`.  The
probes' own time is left out of both the wall and the reference times.

`REF_PROBE_S` fixes the unit only: it is the probe's time on an uncontended
core of the host the baseline was recorded on (an Intel Xeon, model 143,
two vCPUs under KVM), so reference seconds there read about as its fastest
wall seconds.  Two versions of the program compare by the ratio of their
reference times, which no constant changes.

The probe's only object that the garbage collector tracks is one dict,
freed before it returns, so it does not move the program's collections.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.03
REF_PROBE_S = 0.00033
WINDOW = 2


def probe():
    """A fixed pure-Python loop: interpreter dispatch, int arithmetic, dict stores."""
    s = 0
    d = {}
    for i in range(3000):
        d[i & 63] = s
        s += i * i % 7
    return s


class Pace:
    """Probes the core's speed while started; converts wall spans to reference time."""

    def __init__(self):
        self.probes = []          # (start, seconds) of each probe, in time order
        self._previous = None
        self._probing = False

    def _probe(self, signum=None, frame=None):
        # Python runs a handler for a tick that arrives inside a probe at once,
        # nested; drop that tick so probes never overlap.
        if self._probing:
            return
        self._probing = True
        t0 = perf_counter()
        probe()
        self.probes.append((t0, perf_counter() - t0))
        self._probing = False

    def start(self):
        """Probe once now, then every PERIOD_S seconds until `stop`."""
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop the timer, restore the previous handler, and probe once more."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _inside(self, t0, t1):
        starts = [start for start, _ in self.probes]
        return bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)

    def wall_seconds(self, t0, t1):
        """Wall time from t0 to t1 less the probes taken in it."""
        first, end = self._inside(t0, t1)
        return t1 - t0 - sum(seconds for _, seconds in self.probes[first:end])

    def slowdown(self, index):
        """The median probe time around probe `index`, over REF_PROBE_S."""
        near = self.probes[max(0, index - WINDOW): index + WINDOW + 1]
        return statistics.median(seconds for _, seconds in near) / REF_PROBE_S

    def reference_seconds(self, t0, t1):
        """Wall time from t0 to t1, less the probes in it, at the reference speed.

        Each stretch between probes is scaled by the slowdown around the probe
        that ends it; the last stretch by the probe after t1 (`stop` takes one).
        """
        first, end = self._inside(t0, t1)
        total, at = 0.0, t0
        for index in range(first, end):
            start, seconds = self.probes[index]
            total += (start - at) / self.slowdown(index)
            at = start + seconds
        return total + (t1 - at) / self.slowdown(min(end, len(self.probes) - 1))
