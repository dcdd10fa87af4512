"""Machine-speed probe, used to report timings at a reference speed.

On small shared hosts the speed of a core changes by up to 40% for
seconds at a time, and every timing of a run moves with it.  So while a
run measures, a timer signal interrupts it every PROBE_INTERVAL_S to
time a short, fixed, allocation-free integer loop, and each measured
interval is converted to seconds at the reference speed: its length,
less the probes that ran inside it, is scaled by REFERENCE_PROBE_S over
the median probe time within WINDOW_S of it.  The probe does not touch
the program, so a change to the program moves the converted times
exactly as it moves the measured ones.  The run stays on one thread: the
probe runs in the signal handler, between two bytecodes of the main
thread, and takes about 2% of the run.

On a 2-CPU host with Python 3.11, six 20-second runs of the scale
workload spread by 12% (IQR over median) in measured solve time and by
5% in converted solve time; four corpus runs by 8% and 2%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import Callable, Optional

PROBE_ITERATIONS = 15_000
REFERENCE_PROBE_S = 0.00115  # about the probe's time on that host when it is not slowed
PROBE_INTERVAL_S = 0.05
WINDOW_S = 0.25


def probe_loop(n: int = PROBE_ITERATIONS) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


class Speedometer:
    """Probe times taken during a run, and the conversion they give.

    Used as a context manager, it probes on a timer signal until exit.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 probe: Optional[Callable[[], object]] = None):
        self.clock = clock
        self.probe = probe or probe_loop
        self.starts: list = []     # ascending
        self.durations: list = []
        self._previous_handler = None
        self._probing = False

    def __enter__(self) -> "Speedometer":
        self._previous_handler = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.probe_now())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def probe_now(self) -> None:
        if self._probing:  # a signal that arrives during a probe is dropped
            return
        self._probing = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            a = self.clock()
            self.probe()
            b = self.clock()
        finally:
            if collecting:
                gc.enable()
            self._probing = False
        self.starts.append(a)
        self.durations.append(b - a)

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for an interval of the run."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REFERENCE_PROBE_S / statistics.median(near)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end], without the probes in it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[lo:hi])
        return (end - start - busy) * self.scale(start, end)
