"""Host-speed probe: scales measured times to a nominal host.

On a shared machine the CPU's speed drifts by a quarter or more within
minutes, and the same pure-Python work takes 0.33 s in one second and
0.69 s a few seconds later.  Library code slows down in step with it:
over one-second windows the probe below and a cold `classify` agree to
within 1.5 % while each alone varies by 17 %.  So the benchmark times
this fixed piece of interpreter work between ops and reports every
duration scaled to a host on which the probe takes NOMINAL_S, using the
probe's median over the half second before and the half second after the
op (a median, because a probe that the scheduler preempts reads several
times too long).
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.001
EVERY_S = 0.1
WINDOW = 10


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe() -> float:
    """Seconds taken by a fixed mix of objects, tuples, dicts, sets and int ops.

    The collector is paused so that a collection of the caller's heap is
    not billed to the probe.
    """
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    items = []
    for i in range(1500):
        p = _Point(i, (i * 2654435761) & 0xFFFF)
        key = (p.a & 63, p.b >> 10)
        seen[key] = seen.get(key, 0) + 1
        items.append(p.b ^ p.a)
        acc += (p.b & -p.b).bit_length()
    items.sort()
    acc += len(seen) + len({x & 255 for x in items})
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples taken at most every EVERY_S while a pass runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        for _ in range(WINDOW):
            self._sample()

    def _sample(self) -> None:
        self.samples.append(probe())
        self.times.append(time.perf_counter())

    def tick(self) -> None:
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self._sample()

    def finish(self) -> None:
        """Samples after the last op, so that it has a window on both sides."""
        for _ in range(WINDOW // 2):
            self._sample()

    def scale(self) -> float:
        """Factor taking a duration measured now to nominal-host seconds,
        from the last WINDOW samples (about one second)."""
        return NOMINAL_S / statistics.median(self.samples[-WINDOW:])

    def scale_around(self, start: float, end: float) -> float:
        """Factor for a duration measured from `start` to `end`, from the
        WINDOW // 2 samples taken just before it and just after it."""
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        half = WINDOW // 2
        window = self.samples[max(0, lo - half) : lo] + self.samples[hi : hi + half]
        return NOMINAL_S / statistics.median(window)
