"""Host-speed calibration: report times at the reference box's fastest regime.

The reference box is a small shared VM whose cores switch, for seconds
at a time, between speed regimes 30–60 % apart (measured: the same
advection step takes 96, 123 or 160 ms; a cache-resident matmul moves in
lockstep; no steal time shows).  A 10 s run lands in one or two regimes,
so raw medians spread 10–25 % from run to run and no bound tighter than
that could be gated.

So each timed op is followed (at most every ``MIN_INTERVAL_S``) by a
*calibration event*: a fixed 4 ms kernel mixing what this codebase is
made of — interpreter loop, sort + searchsorted, elementwise NumPy, a
small matmul, and a copy + scale streaming 8 MiB (without the streaming
part the memory-bound elastic kernel of ``wave_prop`` is corrected only
half as well) — timed three times, median kept.  ``factor`` is that time
over ``NOMINAL_S``.  An op's time *at reference speed* is its wall time
divided by the factor interpolated at the op's mid time.  End-to-end
time metrics of the compute-bound workloads are reported at reference
speed; raw times and the factors stay in the ``--out`` file and in
``host.speed_factor``.  ``comm_replay`` and ``service_open`` are reported
as measured (``Workload.calibrate = False``): their op times are wake-up
and context-switch latency, which the kernel does not track — calibrated,
their run-to-run spread doubled (service p50 IQR/median 0.16 vs. 0.08 raw).
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from .stats import median

NOMINAL_S = 0.0030  # one kernel run on the reference box in its fastest regime
MIN_INTERVAL_S = 0.25


class Calibrator:
    """Owns the kernel's fixed inputs and the events taken so far."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled  # off: every factor is 1, times stay as measured
        self.times: List[float] = []  # perf_counter time of each event
        self.factors: List[float] = []
        self.spent_s = 0.0
        if not enabled:
            return
        rng = np.random.default_rng(0)
        self._a = rng.random((120, 120))
        self._x = rng.random(1 << 16)
        self._y = rng.random(1 << 16)
        self._z = np.empty_like(self._x)
        self._keys = rng.integers(0, 1 << 40, 20000)
        self._big = rng.random(1 << 20)  # 8 MiB: streams through memory, not cache
        self._big2 = np.empty_like(self._big)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for k in range(12000):
            s += k * k
        np.searchsorted(np.sort(self._keys), self._keys[:5000])
        for _ in range(12):
            np.multiply(self._x, self._y, out=self._z)
            np.add(self._z, self._x, out=self._z)
        for _ in range(6):
            self._a @ self._a
        np.copyto(self._big2, self._big)
        np.multiply(self._big2, 1.0001, out=self._big2)
        return time.perf_counter() - t0

    def event(self, runs: int = 3) -> float:
        """Take one calibration event now; returns its factor."""
        if not self.enabled:
            return 1.0
        t0 = time.perf_counter()
        factor = median([self._kernel() for _ in range(runs)]) / NOMINAL_S
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.factors.append(factor)
        self.spent_s += t1 - t0
        return factor

    def event_if_stale(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > MIN_INTERVAL_S:
            self.event()

    def factor_at(self, when: Sequence[float]) -> np.ndarray:
        """The speed factor at each time, interpolated between events."""
        if not self.times:
            return np.ones(len(when))
        return np.interp(when, self.times, self.factors)
