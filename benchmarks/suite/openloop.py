"""Open-loop load generation: seeded Poisson arrivals on a due-time schedule.

One generator thread (the caller's) submits request ``i`` when its due
time arrives, whether or not earlier requests have completed, so a slow
service receives the same load as a fast one and its queue can grow.
Latency is measured from the *due* time, which charges a stall to every
request it delays; how late the generator itself ran is reported beside
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

import numpy as np

from .stats import median, percentile

P90_LIMIT_S = 0.050
BACKLOG_LIMIT = 0.01  # share of a step's requests overdue and open when the step ends


def schedule(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the step's start) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass
class Step:
    """One fixed-rate step: per-request times on the ``time.perf_counter`` clock."""

    rate: float
    due: np.ndarray  # absolute due times
    submitted: np.ndarray  # when submit() was entered
    submit_s: np.ndarray  # how long submit() took
    handles: List[Any]
    backlog_end: int  # requests due more than the limit ago and still open at step end
    latency: np.ndarray = None  # completion minus due; filled by finish()

    @property
    def late(self) -> np.ndarray:
        return self.submitted - self.due

    def finish(self, completed: Sequence[float]) -> None:
        self.latency = np.asarray(completed) - self.due

    @property
    def p50(self) -> float:
        return median(self.latency.tolist())

    @property
    def p90(self) -> float:
        return percentile(self.latency.tolist(), 90)

    @property
    def ok(self) -> bool:
        return self.p90 <= P90_LIMIT_S and self.backlog_end <= BACKLOG_LIMIT * len(self.due)


def drive(rate: float, offsets: np.ndarray, submit: Callable[[int], Any],
          is_done: Callable[[Any], bool]) -> Step:
    """Submit request ``i`` at ``offsets[i]`` after now; never wait for a reply."""
    n = len(offsets)
    submitted, submit_s, handles = np.empty(n), np.empty(n), []
    due = time.perf_counter() + offsets
    for i in range(n):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        submitted[i] = time.perf_counter()
        handles.append(submit(i))
        submit_s[i] = time.perf_counter() - submitted[i]
    overdue = due < time.perf_counter() - P90_LIMIT_S
    backlog = sum(not is_done(h) for h, old in zip(handles, overdue) if old)
    return Step(rate, due, submitted, submit_s, handles, backlog)


def max_rate_ok(steps: Sequence[Step]) -> float:
    """Highest rate meeting the limit with every lower rate meeting it too (0 if none)."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.ok:
            break
        best = step.rate
    return best
