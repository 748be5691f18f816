"""The host's speed, sampled while the benchmark's own timed code runs.

The 2-vCPU host this benchmark was built on runs every process at one of two
speeds, the slower about half the faster.  It switches within milliseconds
or holds one speed for seconds, and the share of slow time changes from one
minute to the next, so a command's wall time says as much about the host as
about the program.  Process CPU time slows down just as much.

So a fixed probe loop, which uses nothing of the program, is timed right
before and after each timed command and every ``INTERVAL_S`` while it runs
(on SIGALRM, in this one thread).  The probe's mean time over a window is
the host's speed during it.  A window's full-speed time is its own time,
without the probes, times ``FULL_SPEED_PROBE_S`` over that mean: the time
the code takes on the build host running at full speed throughout.  On
another host it is in the same units, which are not that host's seconds.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

INTERVAL_S = 0.01
# The probe's fastest time on the build host (Xeon, 2 vCPUs, Python 3.11.7).
FULL_SPEED_PROBE_S = 210e-6

_LINE = "12 -1 Car 0.0 0 -1.2 101.25 87.5 160.75 118.25 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 0.93"
_BOXES = [(i * 0.37, i * 0.21, i * 0.37 + 55.0, i * 0.21 + 30.0) for i in range(16)]


def _probe_loop() -> float:
    """The kind of work the program's loops do: split KITTI lines and read
    their boxes and scores, then take IoUs of box pairs."""
    total = 0.0
    for i in range(48):
        fields = _LINE.split()
        left, top, right, bottom = (float(x) for x in fields[6:10])
        total += float(fields[-1]) * (right - left + i) / (bottom - top)
    for i in range(150):
        a, b = _BOXES[i & 15], _BOXES[(i * 7) & 15]
        w = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
        h = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
        total += w * h / (3300.0 - w * h)
    return total


def probe() -> float:
    """The probe loop's wall time now."""
    t0 = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t0


def full_speed_s(own_s: float, probe_s: float) -> float:
    """``own_s`` measured while the probe took ``probe_s``, at full speed."""
    return own_s * FULL_SPEED_PROBE_S / probe_s


@dataclass
class Window:
    """One timed stretch: its wall time without probes, and the probe times."""

    own_s: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def probe_s(self) -> float:
        return sum(self.probes) / len(self.probes)


@contextmanager
def sampling(enabled: bool = True):
    """Time the body; with ``enabled``, probe around and inside it."""
    window = Window()
    inside, spent = [], []
    running = True

    def on_alarm(_signum, _frame):
        if running:  # a signal can still be pending once the timer stops
            t0 = time.perf_counter()
            inside.append(probe())
            spent.append(time.perf_counter() - t0)

    if enabled:
        window.probes.append(probe())
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        yield window
    finally:
        if enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        running = False
        window.own_s = time.perf_counter() - t0 - sum(spent)
        if enabled:
            signal.signal(signal.SIGALRM, previous)
            window.probes += inside
            window.probes.append(probe())
