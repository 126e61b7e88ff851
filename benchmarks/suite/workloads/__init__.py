"""The six workloads and the small protocol the child process drives them by.

A workload builds its inputs from the seed in :meth:`Workload.setup`,
does a fixed amount of work (sized from ``--seconds`` by the rates
measured on the reference box, so two commits do the same work) in
:meth:`Workload.run`, checks its own output in :meth:`Workload.verify`,
and — traced runs only — derives the per-layer metrics it owns in
:meth:`Workload.layer_metrics`.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

import numpy as np

from ..calibrate import Calibrator
from ..stats import median


class Ops:
    """Times the ops of one run; one sample list per op kind.

    ``samples`` are wall seconds as measured; :meth:`at_reference_speed`
    divides each by the host-speed factor around it (see ``calibrate``).
    """

    def __init__(self, rec, cal: Calibrator) -> None:
        self.rec = rec
        self.cal = cal
        self.samples: Dict[str, List[float]] = {}
        self.mids: Dict[str, List[float]] = {}  # perf_counter mid time of each sample
        self.failed = 0  # ops whose own check failed
        self.attempted_extra = 0  # attempted ops that are not in ``samples``

    @contextmanager
    def time(self, kind: str, layer: str) -> Iterator[None]:
        self.cal.event_if_stale()
        self.rec.op += 1
        t0 = time.perf_counter()
        with self.rec.span(kind, layer):
            yield
        t1 = time.perf_counter()
        self.record(kind, [t1 - t0], [0.5 * (t0 + t1)])
        self.cal.event_if_stale()

    def record(self, kind: str, seconds: Sequence[float], mids: Sequence[float]) -> None:
        self.samples.setdefault(kind, []).extend(seconds)
        self.mids.setdefault(kind, []).extend(mids)

    def at_reference_speed(self, kind: str) -> List[float]:
        raw = np.asarray(self.samples[kind])
        return (raw / self.cal.factor_at(self.mids[kind])).tolist()

    @property
    def attempted(self) -> int:
        return self.attempted_extra + sum(len(v) for v in self.samples.values())


class Workload:
    """Base class; subclasses set ``name`` and ``primary`` (the op kind of op_p50_ms)."""

    name = ""
    primary = ""
    # GIL-bound children run on one CPU: on the reference VM a thread wake-up
    # across vCPUs costs milliseconds, which puts a whole process (ForestService
    # most of all: p50 2.8 vs 6.5 ms) into a fast or a slow mode at random.
    pin = True
    # Compute-bound ops are reported at reference speed (see ``calibrate``).
    calibrate = True

    def __init__(self, seed: int, quick: bool) -> None:
        self.quick = quick
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, ops: Ops) -> None:
        raise NotImplementedError

    def wall_s(self, ops: Ops) -> float:
        """The timed region at reference speed: the sum of its ops."""
        return sum(sum(ops.at_reference_speed(kind)) for kind in ops.samples)

    def work(self, ops: Ops) -> int:
        """How many ops :meth:`wall_s` covers (printed as the work rate)."""
        return ops.attempted

    def verify(self, ops: Ops) -> int:
        """Number of failed checks on the final state (per-op misses are in ``ops``)."""
        raise NotImplementedError

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        raise NotImplementedError

    def inputs(self) -> dict:
        """What the seed determined (sizes, schedules); equal for equal seeds."""
        return {}

    def close(self) -> None:
        return None


def get(name: str) -> type:
    """The workload class of module ``workloads/<name>.py``."""
    return importlib.import_module(f".{name}", __package__).W


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def probe(rec, name: str, layer: str, fn, reps: int = 3) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``, under one probe span."""
    times = []
    with rec.span(name, layer, probe=True):
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return median(times)
