"""Wall time rescaled to a reference machine speed.

The shared 2-vCPU host this benchmark was written on runs pure-Python code up
to twice as fast at one moment as at another, in phases lasting from seconds
to minutes, even when the benchmark is the only busy process.  CPU time moves
with wall time, so it does not help.  A fixed interpreter-bound kernel slows
down by nearly the same factor as the program: over 60 s of interleaved runs,
one-second medians of a `generate` call and of a `verify_graph` call varied
with a standard deviation of 27%, and their ratios to this kernel's time by 2%
and 3%.

So a ``Clock`` times the kernel every ``PROBE_EVERY_S`` of wall time, from an
interval-timer signal, which also lands inside long operations.  It reports
each operation twice: in wall seconds with the probes taken out, and in
*reference seconds*, where each stretch between two probes is scaled by
``REFERENCE_KERNEL_S`` over the mean of the two kernel times around it, raised
to ``SENSITIVITY``.  On a machine where the kernel takes ``REFERENCE_KERNEL_S``,
reference seconds are wall seconds.

The program slows a little less than the kernel when the host is slow.  Over
ten 30 s runs per workload, regressing each pass's log rate on the log of its
mean kernel time gave slopes of 0.84 (build), 0.81 (verify) and 0.88
(analyze); with full scaling, runs in slow phases read up to 10% fast.
``SENSITIVITY`` is that slope, rounded.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

REFERENCE_KERNEL_S = 0.012  # the kernel's time on a quiet 2-vCPU Xeon VM
SENSITIVITY = 0.85
PROBE_EVERY_S = 0.5


def speed_kernel(n=40000):
    """Fixed dict, tuple and integer work, the mix the program itself does.
    It keeps 512 keys, so it adds next to nothing to the peak RSS."""
    d = {}
    acc = 0
    for i in range(n):
        t = (i & 31, (i >> 5) & 15)
        d[t] = d.get(t, 0) + 1
        acc += len(t) + (i ^ acc) % 3
    return acc


class Clock:
    """Use as a context manager; the interval timer runs only inside it."""

    def __init__(self):
        self.kernel_s = []  # every kernel time measured, in order
        self._starts = []  # start and end of each probe, parallel to kernel_s
        self._ends = []
        self._ops = []  # (start, end) of each operation timed since the last reading
        self._busy = False
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_timer)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.probe()

    def probe(self):
        # The collector is off so that the kernel's time does not depend on
        # how many objects the program and the benchmark hold.
        self._busy = True
        gc.disable()
        try:
            t0 = perf_counter()
            speed_kernel()
            t1 = perf_counter()
            self._starts.append(t0)
            self._ends.append(t1)
            self.kernel_s.append(t1 - t0)
        finally:
            gc.enable()
            self._busy = False

    def time(self, fn, *args):
        """Call ``fn(*args)``; return its result and its wall seconds, less
        the probes that ran inside it."""
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        self._ops.append((t0, t1))
        inside = self.kernel_s[bisect.bisect_left(self._starts, t0):]
        return result, t1 - t0 - sum(inside)

    def reference_seconds(self):
        """Reference seconds of each operation timed since the last call."""
        self.probe()
        out = [self._reference(t0, t1) for t0, t1 in self._ops]
        self._ops = []
        return out

    def _reference(self, t0, t1):
        # Probes inside [t0, t1] split it into stretches; each stretch is
        # scaled by the kernel times just before and just after it.
        k = self.kernel_s
        lo = bisect.bisect_left(self._starts, t0)  # first probe starting inside
        hi = bisect.bisect_left(self._starts, t1)  # first probe after the op
        total = 0.0
        start = t0
        for p in range(lo, hi + 1):
            end = self._starts[p] if p < hi else t1
            total += (end - start) * (2 * REFERENCE_KERNEL_S / (k[p - 1] + k[p])) ** SENSITIVITY
            if p < hi:
                start = self._ends[p]
        return total
