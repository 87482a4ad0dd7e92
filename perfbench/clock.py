"""Nominal time: wall time corrected for the machine's changing speed.

On a small shared machine the speed of one core swings between about 1x and
2x for seconds to tens of seconds at a time (measured on a 2-core x86-64 VM,
Intel Xeon at 2.1 GHz: a fixed pure-Python snippet ran at 1.1x to 2.0x of its
fastest time in 1 s buckets over a minute).  Medians over passes cannot
remove a swing that lasts a whole run.

So a timer signal runs ``calibrate()``, a fixed pure-Python snippet, every
``INTERVAL_S`` seconds, and records how much slower than ``NOMINAL_S`` it
ran.  A wall interval is converted to nominal seconds by dividing each part
of it by the speed factor measured around it.  On the machine above this cut
the run-to-run variation of one diagram enumeration from 22% to 5%
(coefficient of variation over 57 repeats).  The snippet runs with the
garbage collector off, so the package's heap cannot slow it down and hide its
own collection time.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from itertools import combinations

NOMINAL_S = 4.5e-4  # calibrate() on the machine above, in its fast state
INTERVAL_S = 0.05


def calibrate() -> float:
    """Wall seconds for a fixed snippet of tuple, sort and dict work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        for c in combinations(range(9), 4):
            key = min(tuple(sorted((x - e) % 9 for x in c)) for e in c)
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the speed factor from SIGALRM while started."""

    def __init__(self) -> None:
        self.at = array("d")
        self.factor = array("d")
        self._busy = False
        self._previous = None

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def _sample(self) -> None:
        factor = calibrate() / NOMINAL_S
        self.at.append(time.perf_counter())
        self.factor.append(factor)

    def nominal(self, t):
        """Nominal seconds elapsed from the first sample to each wall time in
        ``t``.  Each factor is replaced by the median of itself and its two
        neighbours; between two samples the mean of their factors applies."""
        import numpy as np  # only here, so that importing this module stays light

        # copies: a view would pin the arrays, and the next sample appends.
        # A sample can land between the two copies; the handler appends to
        # both before the main code resumes, so cut both at one length.
        n = len(self.factor)
        at = np.array(self.at[:n])
        f = np.array(self.factor[:n])
        if f.size >= 3:  # a lone disturbed calibration must not count
            f[1:-1] = np.median(np.stack([f[:-2], f[1:-1], f[2:]]), axis=0)
        t = np.asarray(t, dtype=float)
        if at.size < 2:
            return (t - at[0]) / f[0]
        cum = np.concatenate(([0.0], np.cumsum(np.diff(at) / ((f[1:] + f[:-1]) / 2))))
        out = np.interp(t, at, cum)
        out = np.where(t < at[0], (t - at[0]) / f[0], out)
        return np.where(t > at[-1], cum[-1] + (t - at[-1]) / f[-1], out)

    def seconds(self, start: float, end: float) -> float:
        """Nominal length of one wall interval."""
        a, b = self.nominal([start, end])
        return float(b - a)


def bracketed(fn) -> float:
    """Nominal seconds of one call of ``fn``, using a calibration just before
    and just after it; for code that runs where no sampler is started."""
    before = calibrate()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    after = calibrate()
    return wall * NOMINAL_S / ((before + after) / 2)
