"""The machine's speed, sampled while the benchmark's work runs.

A shared machine can change speed under other tenants' load. CPU time
slows as much as wall time does then, so no clock measures the work
alone. `SpeedProbe` arms a timer that interrupts the work every
INTERVAL_S. The interrupt handler times `probe()`, a fixed piece of
pure-Python work, and files the sample under the kind of work that was
running. The time spent in probes is taken out of that work's time.

`scale(kind)` is REF_PROBE_S over the mean probe time for that kind. A
time multiplied by it is what the work would have taken at the reference
speed.
"""

from __future__ import annotations

import signal
import statistics
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# probe() on the reference machine (2-vCPU x86-64 VM, CPython 3.11.7) at
# its faster level; it only sets the unit of the scaled figures
REF_PROBE_S = 0.0005


def probe() -> float:
    """Seconds taken by small-integer arithmetic, dict stores, Fraction
    arithmetic and big-integer products, the staples of the package
    (about 0.5 ms)."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(500):
        acc += (i * 2654435761) % 1000003
        table[i & 255] = acc
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i % 7 - 3, i) * Fraction(2 * i + 1, 3)
    big = 3 ** 300
    for i in range(50):
        acc += big * (big + i) % 1000000007
    return perf_counter() - t0


class SpeedProbe:
    """Times work with `start`/`stop` and, when enabled, samples the speed.

    Use it as a context manager. Disabled, it only times and arms no
    timer.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spent = 0.0
        self._kind: str | None = None
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._kind is not None:
            dt = probe()
            self.samples[self._kind].append(dt)
            self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def start(self, kind: str) -> tuple[float, float]:
        self._kind = kind
        return perf_counter(), self.spent

    def stop(self, mark: tuple[float, float]) -> float:
        """Seconds since `start`, less the probes that ran meanwhile."""
        t1 = perf_counter()
        self._kind = None
        t0, spent = mark
        return t1 - t0 - (self.spent - spent)

    def scale(self, *kinds: str) -> float:
        """Factor taking a time measured during `kinds` to reference speed:
        falls back on every sample, and on 1 when there is none."""
        times = [dt for kind in kinds for dt in self.samples[kind]]
        times = times or [dt for got in self.samples.values() for dt in got]
        return REF_PROBE_S / statistics.fmean(times) if times else 1.0
