"""Host-speed calibration: a fixed reference kernel timed during the run.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent, over minutes and from one second to the next, for reasons
outside the process (neighbours on the same cores, caches and memory
bus); CPU time drifts with wall time, so process time does not remove
it.  To keep runs of the same code comparable, the runner times this
kernel, which belongs to the benchmark and never calls ``chiralcav``,
every ``PERIOD_S`` seconds from an interval timer, also while an op
runs.  An op's calibrated latency is its wall latency, less the kernel
time spent inside it, scaled by ``NOMINAL_S`` over the median kernel
time measured during and around the op.  A slower host slows both and
cancels; a slower program slows only the op and shows in full.

The kernel mixes the kinds of work the workloads do: a batched small
complex solve, elementwise numpy, float formatting and an interpreted
loop.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: kernel time, in seconds, that calibrated times are scaled to: the
#: median kernel time on a quiet 2-vCPU Intel Xeon VM (Python 3.11,
#: numpy 2.4), so calibrated times read as wall times on that host
NOMINAL_S = 0.9e-3
#: interval between two timed kernels while the timer runs
PERIOD_S = 0.05
#: kernels timed before the timer starts
LEAD_SAMPLES = 100
#: an op is calibrated with the kernels timed during it and this many
#: seconds before and after it
WINDOW_S = 0.5


class HostClock:
    """Times the reference kernel and turns wall latencies into calibrated ones."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20150505)
        self._a = rng.standard_normal((250, 4, 4)) + 1j * rng.standard_normal((250, 4, 4)) + 4.0 * np.eye(4)
        self._b = rng.standard_normal((250, 4, 1)) + 0j
        self._x = rng.standard_normal(4000)
        self._floats = [float(v) for v in rng.standard_normal(200)]
        self.times: list[float] = []  # midpoint of each kernel, perf_counter s
        self.durations: list[float] = []

    def _kernel(self) -> int:
        np.linalg.solve(self._a, self._b)
        np.abs(np.exp(1j * self._x)).sum()
        ",".join(repr(v) for v in self._floats)
        acc = 0
        for i in range(3000):
            acc += i * i
        return acc

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.durations.append(t1 - t0)

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        """Time the kernel every PERIOD_S from now on, interrupting whatever runs."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end))

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """(wall, calibrated) latency of an op that ran from ``start`` to ``end``;
        both leave out the kernels timed inside the op."""
        wall = end - start - sum(self.durations[self._between(start, end)])
        local = self.durations[self._between(start - WINDOW_S, end + WINDOW_S)] or self.durations
        return wall, wall * NOMINAL_S / statistics.median(local)

    def median_s(self) -> float:
        return statistics.median(self.durations)
