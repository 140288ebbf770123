"""The machine's pace, read from a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed drifts
by 20-40 % over seconds to minutes as other tenants come and go, and
the drift shows in CPU time as much as in wall time.  So while it times
anything, the runner lets ``Pace`` interrupt it every ``INTERVAL_S``
with a signal and time a small reference kernel there and then, on the
same core, in the middle of the library's work.  A time is reported
without those interruptions and scaled to the pace at which the kernel
takes its nominal time: a slow period stretches the kernel and the work
around it alike, and the ratio stays put.  The kernel never calls the
library, so a change to the library moves the scaled times exactly as
it moves the raw ones.

The kernel has two parts, one per kind of work the library's time goes
to: ``alloc`` fills a dict keyed by exponent tuples with fresh boxed
residues, ``bigint`` multiplies and reduces big integers.  The host's
drift slows the two differently (allocation-heavy code suffers more),
so each timed stretch is scaled by the parts that match its work:
``alloc`` for arithmetic mod p, ``alloc`` and ``bigint`` together for
rational arithmetic, whose time goes partly to big integers.  In
ten-seed trials on such a host, scaling everything by ``alloc`` alone
left the rational certificates' wall time about three times as spread
between runs, and scaling everything by both parts left the mod-p
items two to five times as spread.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

# seconds of wall time between two kernel runs
INTERVAL_S = 0.05

# kernel runs at least that set the pace of one timed stretch: those
# inside it, or the ones nearest to its middle when it is short
NEAREST = 8


class _Residue:
    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p


_P = 32003
_BIG = [3**2000 + 7 * k for k in range(6)]


def _alloc():
    table = {}
    for i in range(1000):
        table[(i, i & 7, i >> 3)] = _Residue(i * 31, _P)
    return len(table)


def _bigint():
    acc = 1
    for x in _BIG:
        for y in _BIG:
            acc = (acc * x + y) % (x + 12345)
    return acc


# part -> (function, seconds it takes at the pace the scaled times are
# given in: about its time amid the library's work on a 2-vCPU host with
# CPython 3.11)
PARTS = {"alloc": (_alloc, 0.85e-3), "bigint": (_bigint, 0.85e-3)}


class Pace:
    """Kernel runs on a wall-clock timer while the context is open.

    ``starts`` holds when each run began and ``lengths`` how long each
    part took in it; the context also runs the kernel once on entry and
    on exit, so every stretch timed inside it has runs on both sides.
    """

    def __init__(self):
        self.starts = []
        self.lengths = {name: [] for name in PARTS}
        self._previous = None
        self._busy = False

    def _tick(self, signum=None, frame=None):
        # a signal that lands while the kernel runs is dropped
        if self._busy:
            return
        self._busy = True
        self.starts.append(perf_counter())
        for name, (part, _) in PARTS.items():
            start = perf_counter()
            part()
            self.lengths[name].append(perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def _runs(self, parts, lo, hi):
        """Length of each kernel run from ``lo`` to ``hi``, counting ``parts``."""
        return [sum(self.lengths[name][k] for name in parts) for k in range(lo, hi)]

    def ratio(self, parts):
        """Median run of ``parts`` over their nominal time: above 1 is slow."""
        nominal = sum(PARTS[name][1] for name in parts)
        return statistics.median(self._runs(parts, 0, len(self.starts))) / nominal

    def scaled(self, start, end, parts):
        """(scaled, own) seconds of the stretch from ``start`` to ``end``.

        ``own`` is its length less the kernel runs that interrupted it;
        ``scaled`` is ``own`` times the nominal time of ``parts`` over
        the median time they took in the runs that set its pace.
        """
        starts = self.starts
        lo, hi = bisect_left(starts, start), bisect_left(starts, end)
        own = end - start - sum(self._runs(PARTS, lo, hi))
        middle = (start + end) / 2
        while hi - lo < NEAREST and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and middle - starts[lo - 1] <= starts[hi] - middle):
                lo -= 1
            else:
                hi += 1
        nominal = sum(PARTS[name][1] for name in parts)
        return own * nominal / statistics.median(self._runs(parts, lo, hi)), own
