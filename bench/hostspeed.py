"""Host speed, measured alongside the workload, to scale times to a fixed speed.

The benchmark runs on a shared VM whose speed wanders: a fixed CPU-bound
loop runs up to 1.8x slower from one minute to the next, and 30-second
averages of its speed spread by 27% (IQR over median) over five minutes.
Process CPU time tracks wall time, so the slowdown is a slower core, not
time taken away.  No pass time measured in a 28-second run can be steadier
than that.

So the timed runs also measure the host.  ``Speedometer`` runs a fixed piece
of exact arithmetic, the *reference loop*, at every task boundary and,
driven by an interval timer, every ``INTERVAL`` seconds inside in-process
tasks.  Each sample gives a speed factor ``REFERENCE_S / duration``: 1 at
the reference speed, below 1 when the host is slower.  A task's time at the
reference speed is its measured time, less the samples taken inside it,
times the mean factor of the samples taken from ``HALO`` seconds before it
starts to ``HALO`` seconds after it ends.  Inside a task the timer spaces
the samples evenly, so the mean weighs each stretch of the task by its
length.  The reference loop is the benchmark's own code and never calls
deforma, so a change to deforma moves these times exactly as it moves the
measured ones.

Over 14 ``mc`` passes in a row, with the host between 0.69 and 1.34 of the
reference speed, the pass time varied with a CV of 0.155 as measured and
0.031 scaled.  Scaling by a power of the factor (0.5 to 1.15) left no less.
The median factor instead of the mean left 0.042.

The ``cli`` tasks are child processes that spend most of their time
starting the interpreter and importing.  For them the probe is a bare
interpreter start (``python -c pass``), with ``SPAWN_REFERENCE_S`` in place
of ``REFERENCE_S``.  Over 17 passes of the 31 invocations, the pass time
varied with a CV of 0.060 as measured, 0.038 scaled by the reference loop
and 0.015 scaled by the interpreter start.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# duration of one reference loop at the reference speed; on the 2-vCPU VM
# the bounds were set on (Python 3.11.7) it took 1.6 ms to 3.2 ms
REFERENCE_S = 0.002
INTERVAL = 0.1
# a short window is scaled by the samples taken up to HALO seconds around it
# too, not only by its two boundaries; the host's speed changes within a
# second, so a wider halo mixes in other speeds
HALO = 0.25
# duration of a bare interpreter start at the reference speed; on the same
# VM it took 53 ms to 67 ms
SPAWN_REFERENCE_S = 0.06

_LEFT = [Fraction(i % 7 - 3, i % 4 + 1) for i in range(48)]
_RIGHT = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(48)][::4]


def reference_loop() -> Fraction:
    """Fraction products and sums over short vectors, deforma's inner loop."""
    acc = Fraction(0)
    for x in _LEFT:
        for y in _RIGHT:
            acc += x * y
    return acc


def sample() -> float:
    """Seconds one reference loop takes now; the collector is held off so
    that a collection of the workload's objects is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def spawn_sample() -> float:
    """Seconds a bare interpreter start (``python -c pass``) takes now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return perf_counter() - start


class Speedometer:
    """Speed samples ``(time, factor)`` and the scaling of timed windows.

    With ``spawning`` the windows wait on a child process, so no timer can
    sample inside them, and most of a child's time is interpreter start and
    import, which the reference loop tracks poorly.  Such a speedometer
    times a bare interpreter start instead, once after each window; the
    halo reaches the sample after the window before."""

    def __init__(self, spawning: bool = False):
        self.spawning = spawning
        self._probe, self._reference = ((spawn_sample, SPAWN_REFERENCE_S)
                                        if spawning else (sample, REFERENCE_S))
        self._probe()                    # warm the probe's code and data
        self.samples: list[tuple[float, float]] = []
        self._inside = 0.0               # seconds of samples taken in a window
        self._busy = False

    def mark(self) -> float:
        """Take one sample now; returns its factor."""
        now = perf_counter()
        self.samples.append((now, self._reference / self._probe()))
        return self.samples[-1][1]

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.mark()
        self._inside += perf_counter() - start
        self._busy = False

    def window(self, fn):
        """Run ``fn`` between boundary samples, and unless ``spawning`` let
        the interval timer sample while it runs.  Returns ``(value, start,
        end, raw_s)``; ``raw_s`` excludes the samples taken inside."""
        timed = not self.spawning
        if timed:
            self.mark()
        self._inside = 0.0
        if timed:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = perf_counter()
        try:
            value = fn()
        finally:
            end = perf_counter()
            if timed:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        raw = end - start - self._inside
        self.mark()
        return value, start, end, raw

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the samples from ``HALO`` seconds before ``start``
        to ``HALO`` seconds after ``end``."""
        return statistics.fmean(f for t, f in self.samples
                                if start - HALO <= t <= end + HALO)
