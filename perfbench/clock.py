"""Speed-normalised timing for a host whose CPU speed drifts.

On a shared host the same pure-Python work can take 30 % longer in one minute
than in the next, and CPU time drifts with it, so raw seconds from runs made
minutes apart do not compare.  While a :class:`SpeedClock` is active, a
SIGALRM timer runs a fixed probe (Horner steps on mpmath floats at 64
digits, the kind of work resum does) every ``INTERVAL_S`` seconds in the
measuring thread.  An interval is then reported in reference seconds: its
raw length, less the probe time spent inside it, times ``REFERENCE_PROBE_S``
over the mean probe time measured around it.
A program change moves the interval but not the probe, so it still shows in
full; a change in host speed moves both and cancels.
"""

import bisect
import contextlib
import signal
import statistics
import time

from mpmath import mp, mpf

INTERVAL_S = 0.1
# Probe time at the reference speed: about the mean probe time measured
# during runs on a 2-vCPU x86-64 VM with Python 3.11 and mpmath's pure-Python
# backend, so reference seconds there read close to wall seconds.
REFERENCE_PROBE_S = 1.4e-3
# An interval shorter than the probe spacing borrows its nearest neighbours.
MIN_PROBES = 5
PROBE_DIGITS = 64

with mp.workdps(PROBE_DIGITS):
    _COEFFS = [mpf((-1) ** j) / (j + 3) for j in range(61)]
    _X = mpf(731) / 1000


def probe():
    """Run the fixed probe once; return its duration in seconds.

    Horner steps on mpmath floats at 64 digits, like the polynomial work in
    resum.  The working precision is restored before returning, so the
    probe may interrupt any computation.
    """
    start = time.perf_counter()
    with mp.workdps(PROBE_DIGITS):
        for _ in range(6):
            acc = _COEFFS[-1]
            for c in _COEFFS:
                acc = acc * _X + c
    return time.perf_counter() - start


class SpeedClock:
    """Context manager that samples host speed and converts intervals."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None
        self._busy = False

    def _record(self):
        start = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(start)

    def _sample(self, signum, frame):
        if self._busy:  # a late tick arriving during a probe is dropped
            return
        self._busy = True
        self._record()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextlib.contextmanager
    def around(self):
        """Sample around work done by a child process, not during it.

        The timer stops while the body runs, and MIN_PROBES probes are taken
        right before and right after, so the interval borrows the speed
        measured next to it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            for _ in range(MIN_PROBES):
                self._record()
            yield
            for _ in range(MIN_PROBES):
                self._record()
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def seconds(self, start, end):
        """Reference seconds of the interval ``[start, end]``, less the probes
        that interrupted it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.durations[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_PROBES:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples taken; the clock was not active")
        speed = REFERENCE_PROBE_S / statistics.fmean(self.durations[lo:hi])
        return (end - start - inside) * speed
