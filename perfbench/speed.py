"""
CPU-speed probe for a noisy machine.

On a small shared virtual machine the speed of a vCPU changes by up to 2x
within seconds, as other tenants load the host: a fixed piece of pure
Python work measured back to back on a 2-core virtual machine took from
40 ms to 80 ms.  A run of a few tens of seconds then reads fast or slow
depending on how much of it fell in the slow state, and run-to-run spread
swamps the effects the benchmark must resolve.

`probe()` times a fixed unit of interpreter work (tuples, dicts, ints and
Fractions, as in alcalc's hot loops).  `Sampler` runs it every PERIOD_S
from a SIGALRM handler in the main thread, so long ops are sampled inside
too, with no extra thread.  A timing is scaled to the reference speed by
REF_PROBE_S / (mean probe time over its interval): the result reads as the
time the work would take on a CPU that runs the probe in REF_PROBE_S.
REF_PROBE_S only fixes the unit; it is the probe time on the machine that
recorded the first baseline, in its fast state.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_PROBE_S = 0.0006
PERIOD_S = 0.05


def _unit() -> int:
    acc = 0
    seen: dict = {}
    q = Fraction(0)
    for i in range(1500):
        t = (i, i * 7 % 13, i & 5)
        seen[t] = seen.get(t, 0) + i
        acc += sum(t) * (i % 11)
        if i % 100 == 0:
            q += Fraction(i + 1, i % 7 + 2)
    return acc + q.denominator


def probe(repeat: int = 1) -> float:
    """Seconds for `repeat` units of probe work, divided by `repeat`."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        _unit()
    return (time.perf_counter() - t0) / repeat


class Sampler:
    """Periodic probes from a SIGALRM handler while the sampler runs."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _unit()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample(None, None)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe seconds spent inside [t0, t1], speed factor for it).
        Without a probe inside the window, the nearest probe on each side
        gives the speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        near = inside or self.durations[max(lo - 1, 0) : lo + 1]
        return sum(inside), REF_PROBE_S / statistics.mean(near)
