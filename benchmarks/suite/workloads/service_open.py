"""service_open — ForestService under open-loop arrivals at fixed rates.

``ForestService(ranks=2, backend="thread", workers=2)``; a request is a
small ``brick_2d(2, 1)`` forest New→Refine→Balance→Partition→checksum on
2 ranks, over 4 tenants.  After a 20-request warm-up, seeded Poisson
arrivals at 40/80/120/160 req/s (at least 100 requests a step) from one
generator thread; then a fixed burst submitted at once, whose drain time
is ``wall_s``.  Limit: p90 ≤ 50 ms from due time and ≤ 1 % of a step's
requests still open when it ends.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d
from repro.p4est.forest import Forest
from repro.parallel import Machine, RunConfig, SpmdError
from repro.service import DONE, ForestService, ServiceConfig, ServiceError, TERMINAL_STATES

from .. import openloop
from ..registry import SERVICE_RATES
from ..stats import median, percentile
from . import Ops, Workload

TENANTS = 4
WARMUP = 20
MIN_STEP_REQUESTS = 100  # so a step's p90 has ten samples beyond it
BURST_PER_SECOND = 30
KINDS = 3  # distinct requests (the refine mask depends on cycle % 3)


def forest_session(comm, cycle: int):
    """One request: build, adapt and checksum a small forest on two ranks."""
    forest = Forest.new(brick_2d(2, 1), comm, level=1)
    mask = (np.arange(forest.local_count) + cycle) % 3 == 0
    forest.refine(mask=mask, maxlevel=2)
    balance(forest)
    forest.partition()
    return forest.checksum()


class W(Workload):
    name = "service_open"
    primary = "request"
    # Calibrated (events at step ends, or in idle gaps), run-to-run spread of
    # the p50 and of the burst was no better or twice as bad as raw.
    calibrate = False

    def setup(self) -> None:
        self.svc = ForestService(ServiceConfig(
            ranks=2, backend="thread", workers=2, max_queue=1 << 16))
        self.sessions: List[tuple] = []  # (session id, cycle)
        self.refused = 0
        for i in range(WARMUP):
            self.svc.result(self.svc.submit(forest_session, i % KINDS), timeout=60)

    def _submit(self, cycles: np.ndarray, i: int):
        cycle = int(cycles[i])
        try:
            sid = self.svc.submit(forest_session, cycle, tenant=f"tenant{i % TENANTS}")
        except ServiceError:
            self.refused += 1
            return None
        self.sessions.append((sid, cycle))
        return sid

    def _done(self, sid) -> bool:
        return sid is None or self.svc.poll(sid) in TERMINAL_STATES

    def _drain(self, sids) -> None:
        for sid in sids:
            if sid is not None:
                try:
                    self.svc.result(sid, timeout=120)
                except (ServiceError, SpmdError, TimeoutError):
                    pass  # counted in verify() from the session state

    def run(self, seconds: float, ops: Ops) -> None:
        self.steps = []
        self.schedule_us: List[int] = []
        for rate in SERVICE_RATES:
            n = MIN_STEP_REQUESTS if self.quick else max(
                MIN_STEP_REQUESTS, round(rate * seconds / len(SERVICE_RATES)))
            cycles = self.rng.integers(0, KINDS, size=n)
            offsets = openloop.schedule(rate, n, self.rng)
            self.schedule_us.append(int(1e6 * offsets[-1]))
            with ops.rec.span(f"step_r{rate}", "service"):
                step = openloop.drive(
                    rate, offsets, lambda i: self._submit(cycles, i), self._done)
                self._drain(step.handles)
            step.finish([
                step.submitted[i] + self._wall(sid) for i, sid in enumerate(step.handles)
            ])
            self.steps.append(step)
        ops.record("request", self.steps[0].latency, self.steps[0].due)

        self.burst_n = n = 30 if self.quick else max(30, round(seconds * BURST_PER_SECOND))
        cycles = self.rng.integers(0, KINDS, size=n)
        t0 = time.perf_counter()
        with ops.rec.span("burst", "service"):
            self._drain([self._submit(cycles, i) for i in range(n)])
        t1 = time.perf_counter()
        ops.record("burst", [t1 - t0], [0.5 * (t0 + t1)])

    def _wall(self, sid) -> float:
        """Submit-to-finish seconds of a session; refused ones miss every limit."""
        if sid is None:
            return float("inf")
        wall = self.svc.snapshot(sid)["wall_seconds"]
        return float("inf") if wall is None else wall

    def wall_s(self, ops: Ops) -> float:
        return ops.at_reference_speed("burst")[0]

    def work(self, ops: Ops) -> int:
        return self.burst_n

    def verify(self, ops: Ops) -> int:
        machine = Machine(RunConfig(size=2))
        want = {c: machine.run(forest_session, c).values for c in range(KINDS)}
        failed = self.refused
        for sid, cycle in self.sessions:
            ok = self.svc.poll(sid) == DONE and self.svc.result(sid).values == want[cycle]
            failed += int(not ok)
        # Every request was attempted; only the first step's and the burst are samples.
        timed = sum(len(v) for v in ops.samples.values())
        ops.attempted_extra = len(self.sessions) + self.refused - timed
        return failed

    def inputs(self) -> dict:
        return {"requests": [len(s.due) for s in self.steps],
                "schedule_us": self.schedule_us}

    def close(self) -> None:
        self.svc.close()

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for step in self.steps:
            r = int(step.rate)
            out[f"service.r{r}.p50_ms"] = 1e3 * step.p50
            out[f"service.r{r}.p90_ms"] = 1e3 * step.p90
            out[f"service.r{r}.backlog_end"] = step.backlog_end
        late = np.concatenate([s.late for s in self.steps])
        submit = np.concatenate([s.submit_s for s in self.steps])
        tenants = self.svc.status()["tenants"].values()
        out.update({
            "service.submit_us": 1e6 * median(submit.tolist()),
            "service.gen_late_p90_ms": 1e3 * percentile(late.tolist(), 90),
            "service.retries": sum(t["retries"] for t in tenants),
            "service.rejected": self.refused,
            "service.max_rate_ok": openloop.max_rate_ok(self.steps),
        })
        return out
