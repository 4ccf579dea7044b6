"""A reference clock, so that timings hold still while the host's speed moves.

The benchmark runs on a few cores of a shared host.  There the same fixed
work takes up to 1.8 times as long from one second to the next, and whole
minutes run slow, because other tenants share the physical cores and
caches; process CPU time is slowed just as much as wall time.  A
points-per-second figure in wall seconds therefore spreads by far more
than any useful regression bound.

``RefClock`` measures the host's speed as the run goes: at the boundaries
between timed operations, outside every timed region, it runs a fixed
kernel once per ``INTERVAL`` of wall time that has passed since it last
ran.  Its samples are thus spread over the run in proportion to time, as
the timed operations are.  One reference second is the time the host
takes for ``1 / NOMINAL_S`` runs of the kernel; ``factor`` is the mean
kernel time over ``NOMINAL_S``, and a wall time divided by it is in
reference seconds.  The kernel uses pilotc nowhere, so a change to pilotc
moves the wall times and leaves the factor as it was.  Like pilotc's
codec, it mixes Python integer and bit work with numpy calls on small
arrays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 2.5e-3      # one reference second is 400 kernel runs
INTERVAL = 0.05         # wall seconds of other work per kernel run
MAX_BATCH = 40          # kernel runs at one boundary, at most
AROUND = 4              # kernel runs just before and just after a one-off
WARMUP = 20

_ROWS = np.random.default_rng(0).standard_normal((64, 30))


def kernel() -> float:
    out = bytearray()
    for i in range(1500):
        v = (i * 2654435761) & 0xFFFFFFFF
        while v >= 128:
            out.append((v & 127) | 128)
            v >>= 7
        out.append(v)
    s = float(len(out))
    for j in range(150):
        x = _ROWS[j & 63]
        s += float(np.fft.rfft(x)[1].real) + float(np.cumsum(x)[-1])
        s += int(np.round(x * 3.0).astype(np.int64).sum())
    return s


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefClock:
    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Call between timed operations: samples the kernel in proportion
        to the wall time since it last ran."""
        n = min(MAX_BATCH, int((time.perf_counter() - self._last) / INTERVAL))
        self.samples.extend(_time_kernel() for _ in range(n))
        if n:
            self._last = time.perf_counter()

    def factor(self) -> float:
        """Host slowness over the run so far: mean kernel time / NOMINAL_S."""
        if not self.samples:
            self.samples.append(_time_kernel())
        return statistics.fmean(self.samples) / NOMINAL_S

    def around(self, fn) -> tuple[float, object]:
        """Time ``fn()`` in reference seconds, from kernel runs just before
        and just after it (for a one-off such as set-up).  These runs stay
        out of ``samples``, which are spread over the run by time."""
        before = [_time_kernel() for _ in range(AROUND)]
        t0 = time.perf_counter()
        value = fn()
        t = time.perf_counter() - t0
        after = [_time_kernel() for _ in range(AROUND)]
        self._last = time.perf_counter()
        return t / (statistics.fmean(before + after) / NOMINAL_S), value
