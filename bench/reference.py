"""Host speed, sampled during every timed call of the untraced run.

The benchmark runs on a few cores of a shared virtual machine. There, a core
slows by up to half for seconds at a time while neighbours are busy, and the
process's CPU time slows with its wall time, so it is not steal time. Raw
pass times then spread by 0.1 to 0.5 (interquartile range over median)
across runs of the same work, and neither medians nor minima over a run
remove it. What does is to time a fixed reference loop while the call runs
and to express the call's time in units of that loop.

:class:`Sampled` is the probe of the untraced run. Around each call it runs
the reference loop once before, every ``INTERVAL_S`` during it (from a
``SIGALRM`` timer) and once after. The call's own time excludes the loops
that ran inside it; its time in ``ref`` units is that divided by the mean
loop time. Program code is not patched: the loop is the benchmark's own and
runs between the program's bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One sample every 20 ms; a loop takes about 1 ms, so sampling costs about
# 5% of a call's wall time, which is taken out of it again.
INTERVAL_S = 0.02
LOOP_STEPS = 100

# A small projected gradient step, the kind of work run_ecim's loop does:
# interpreter dispatch plus numpy calls on short vectors.
_COUPLING = np.eye(4) * 0.5
_FIELD = np.ones(4)


def reference_loop() -> float:
    """Seconds taken by a fixed loop of ``LOOP_STEPS`` small numpy steps."""
    z = np.zeros(4)
    start = time.perf_counter()
    for _ in range(LOOP_STEPS):
        z = np.clip(z - 0.1 * (_COUPLING @ z + _FIELD), -1.0, 1.0)
        float(z @ (_COUPLING @ z))
    return time.perf_counter() - start


class Sampled:
    """Probe of the untraced run: times each call and samples host speed.

    ``ops`` gets one ``(seconds, ref)`` pair per call: the call's wall time
    without the loops run inside it, and the same time divided by the mean
    reference-loop time around it. Only the main thread may create one, as
    it installs a ``SIGALRM`` handler for the rest of the process.
    """

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self._inside: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._inside.append(reference_loop())

    def call(self, name, fn, *args, **kwargs):
        before = reference_loop()
        self._inside = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            seconds = time.perf_counter() - start - sum(self._inside)
            samples = [before, *self._inside, reference_loop()]
            self.ops.append((seconds, seconds / statistics.fmean(samples)))

    def objective(self, objective):
        return objective
