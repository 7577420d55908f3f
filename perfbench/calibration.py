"""Machine-speed calibration.

The benchmark's reference machine (2-core Intel Xeon, Python 3.11, numpy
2.4) is shared, and its speed for the same single-threaded work swings by
up to 2x, sometimes within a second, with no preemption: CPU time equals
wall time throughout.  Raw wall times therefore spread more between runs
than any useful regression bound.

``Meter`` times a small fixed kernel that does the same kind of work as the
program's inner loops (a scalar Python tridiagonal elimination over numpy
arrays) and shares no code with it, so a change to the program cannot move
it.  The benchmark samples it a few times before each command run and, from
a wrapper around ``solver.step``, about every 20 ms during the run.  A
timing is then scaled to the reference speed: the sampling time is taken
out, and the rest is multiplied by the mean of reference time / sample
time over the samples inside the timed span (with samples evenly spaced in
time, that mean is the share of the span's work the reference machine
would have needed).
"""

import statistics
import time

_now = time.perf_counter_ns

#: the kernel's time on the reference machine when it is not contended
REFERENCE_NS = 550_000
_ROWS = 500
_INTERVAL_NS = 20_000_000


class Meter:
    """Speed samples of the fixed kernel, interleaved with the program."""

    def __init__(self):
        import numpy as np  # after run.py has pinned numpy to one thread

        rng = np.random.default_rng(12345)
        self._lo, self._up = rng.random(_ROWS - 1), rng.random(_ROWS - 1)
        self._diag, self._b = 4.0 + rng.random(_ROWS), rng.random(_ROWS)
        self._cp, self._x = np.empty(_ROWS - 1), np.empty(_ROWS)
        self.inv_speeds = []
        self.excluded_ns = 0
        self.tracer = None
        self._last = 0

    def _kernel_ns(self):
        lo, up, diag, b, cp, x = (self._lo, self._up, self._diag, self._b,
                                  self._cp, self._x)
        t0 = _now()
        cp[0] = up[0] / diag[0]
        x[0] = b[0] / diag[0]
        for i in range(1, _ROWS):
            piv = diag[i] - lo[i - 1] * cp[i - 1]
            if i < _ROWS - 1:
                cp[i] = up[i] / piv
            x[i] = (b[i] - lo[i - 1] * x[i - 1]) / piv
        for i in range(_ROWS - 2, -1, -1):
            x[i] -= cp[i] * x[i + 1]
        return _now() - t0

    def sample(self):
        t0 = _now()
        self.inv_speeds.append(REFERENCE_NS / self._kernel_ns())
        t1 = _now()
        self.excluded_ns += t1 - t0
        self._last = t1

    def tick(self):
        """Sample when the last sample is older than the interval; in a
        traced run the sample gets its own span, so that it is not counted
        as self time of the layer that called it."""
        if _now() - self._last >= _INTERVAL_NS:
            if self.tracer is None:
                self.sample()
            else:
                self.tracer.span("calibration", self.sample)

    def mark(self):
        return self.excluded_ns, len(self.inv_speeds)

    def excluded(self, start, end):
        """Time spent sampling between two marks, in ns."""
        return end[0] - start[0]

    def scale(self, start, end):
        """Factor taking a time measured between two marks (less the
        sampling time) to the reference speed."""
        return statistics.fmean(self.inv_speeds[start[1]:end[1]])
