"""Machine-speed probe: corrects round times for the speed of a shared CPU.

On a shared host the same round can take 1.7 times longer for tens of
seconds while another tenant loads the core's hyperthread sibling; both
wall and CPU time inflate.  The probe samples the machine's current
speed while a round runs: every PERIOD seconds a SIGALRM handler times
kernel(), a fixed piece of interpreter-bound work shaped like psdl's own
(heap pushes and pops, float math, recursive adaptive Simpson).  A round's
speed factor is the mean over its samples of REFERENCE_S / sample time,
so a round measured while the core runs at half speed is scaled by 1/2.
The kernel's own time is taken out of the round before scaling.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD = 0.1
# kernel()'s duration, sampled inside a round, on an uncontended core of
# the machine the baseline was measured on (2 vCPUs, Python 3.11); sets
# the unit of the corrected times: seconds at that machine's full speed
REFERENCE_S = 0.7e-3


def _simpson(f, a, b, fa, fm, fb, whole, tol):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return _simpson(f, a, m, fa, flm, fm, left, 0.5 * tol) + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol)


def kernel() -> float:
    """Time one pass of the fixed calibration work."""
    t0 = time.perf_counter()
    h: list = []
    x = 0.5
    for i in range(800):
        x = math.exp(-x) + 0.1 * x
        heapq.heappush(h, (x, i))
    while h:
        heapq.heappop(h)
    f = lambda u: math.exp(-u * u) * math.sqrt(1.0 + u)
    fa, fm, fb = f(0.0), f(1.5), f(3.0)
    _simpson(f, 0.0, 3.0, fa, fm, fb, 3.0 / 6.0 * (fa + 4.0 * fm + fb), 1e-9)
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._active = False

    def _on_alarm(self, signum, frame):
        if self._active:
            self.samples.append(kernel())

    @contextmanager
    def sampling(self):
        """Sample while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._active = False
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples while the block runs, for phases where worker
        processes load the CPUs and the kernel would measure our own load."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active

    def kernel_seconds(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        return speed_factor(self.samples)


def speed_factor(samples: list[float]) -> float:
    """Mean speed relative to the reference; 1.0 without samples."""
    if not samples:
        return 1.0
    return statistics.fmean(REFERENCE_S / s for s in samples)
