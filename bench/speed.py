"""Host-speed probe: a fixed pure-Python loop timed on a timer signal.

The machine the benchmark was defined on shares its cores with other
tenants, and its speed drifts by up to 40% over tens of seconds: a fixed
loop took from 0.11 ms to 0.19 ms, and both cores slowed together.  A raw
wall time moves with that drift as much as with the program.

While a worker runs its round, ``SpeedProbe`` runs ``_loop`` every
``INTERVAL_S`` inside the worker's own process (on SIGALRM, between
bytecodes), so each sample sees the speed the program saw at that moment.
``measure`` returns a region's wall time without the probe's own time, and
that time in reference seconds: scaled by ``REF_LOOP_S`` over the mean loop
time in the region, i.e. what the region would have taken at the speed at
which the loop takes ``REF_LOOP_S``.  Only ratios between runs on one
machine mean anything; ``REF_LOOP_S`` is the loop's time in the fast phases
of the machine the benchmark was defined on, so reference seconds read
close to wall seconds there.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REF_LOOP_S = 0.00012
LOOP_N = 2000
WARMUP_LOOPS = 50


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, duration)

    def tick(self, *_) -> None:
        t0 = time.perf_counter()
        _loop()
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP_LOOPS):  # the first calls run cold and slow
            _loop()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self) -> float:
        """Open a region: its start time, with one sample taken inside it."""
        t0 = time.perf_counter()
        self.tick()
        return t0

    def measure(self, t0: float) -> tuple[float, float]:
        """Close the region opened at t0: (wall s without the probe, reference s)."""
        self.tick()
        t1 = time.perf_counter()
        inside = [d for s, d in self.ticks if t0 <= s < t1]
        wall = (t1 - t0) - sum(inside)
        # a sample over twice the median was interrupted, not slowed by the host
        med = statistics.median(inside)
        speed = statistics.fmean(d for d in inside if d <= 2 * med)
        return wall, wall * REF_LOOP_S / speed
