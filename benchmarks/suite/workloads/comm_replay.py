"""comm_replay — the process router under an advect-shaped collective schedule.

A compute-free rank program on long-lived process ranks (``fork``, warm
pool).  One op is a *step block*: 5 ring ``exchange``s with payloads
drawn by the seed from {1 KiB, 64 KiB} plus one ``allreduce``.  Every
10th block is followed by an *adapt block*: ``allgather`` + ``exscan`` +
2 ring ``exchange``s of 1 MiB (above ``shm_threshold_bytes``) + ``bcast``
+ ``barrier``.  Every result is checked against its locally computable
expected value.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro.parallel import SUM, Machine, RunConfig

from ..stats import median, percentile
from . import Ops, Workload

BLOCKS_PER_SECOND = 230  # step blocks (with their share of adapt blocks), reference box
ADAPT_EVERY = 10
SMALL, LARGE, HUGE = 128, 8192, 131072  # float64 counts: 1 KiB, 64 KiB, 1 MiB
COLLECTIVES = ("barrier", "allreduce", "allgather", "exchange_1k", "exchange_64k",
               "exchange_1m")


def ranks() -> int:
    return min(max(len(os.sched_getaffinity(0)), 2), 4)


def _ring(comm, n: int, tag: float) -> int:
    """One ring exchange of ``n`` doubles; returns 1 if the payload is wrong."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    got = comm.exchange({nxt: np.full(n, comm.rank + tag)})[prv]
    return int(got.shape != (n,) or got[0] != prv + tag or got[-1] != prv + tag)


def noop(comm) -> int:
    return comm.rank


def replay(comm, sizes: np.ndarray, traced: bool) -> dict:
    """The rank program: replay ``sizes`` (one row of 5 payloads per step block)."""
    r, P = comm.rank, comm.size
    clock = time.perf_counter
    steps: List[tuple] = []  # (seconds, mid time)
    adapts: List[tuple] = []
    spans: List[tuple] = []
    bad = 0

    def call(name: str, fn, *args):
        if not traced:
            return fn(*args)
        t0 = clock()
        out = fn(*args)
        spans.append((name, t0, clock()))
        return out

    for b, row in enumerate(sizes):
        t0 = clock()
        for k, n in enumerate(row):
            bad += call("exchange", _ring, comm, int(n), 10.0 * b + k)
        bad += int(call("allreduce", comm.allreduce, r + b, SUM) != P * b + P * (P - 1) // 2)
        t1 = clock()
        steps.append((t1 - t0, 0.5 * (t0 + t1)))
        if traced:
            spans.append(("block", t0, t1))
        if b % ADAPT_EVERY != ADAPT_EVERY - 1:
            continue
        t0 = clock()
        bad += int(call("allgather", comm.allgather, 7 * r + b) != [7 * q + b for q in range(P)])
        bad += int(call("exscan", comm.exscan, r + 1, SUM) != r * (r + 1) // 2)
        for k in range(2):
            bad += call("exchange", _ring, comm, HUGE, 10.0 * b + 5 + k)
        bad += int(call("bcast", comm.bcast, b if r == 0 else None, 0) != b)
        call("barrier", comm.barrier)
        t1 = clock()
        adapts.append((t1 - t0, 0.5 * (t0 + t1)))
        if traced:
            spans.append(("adapt", t0, t1))
    return {"steps": steps, "adapts": adapts, "bad": bad, "spans": spans}


def probe_collectives(comm, reps: int) -> Dict[str, float]:
    """Median microseconds of each collective, called ``reps`` times in a row."""
    calls = {
        "barrier": comm.barrier,
        "allreduce": lambda: comm.allreduce(comm.rank, SUM),
        "allgather": lambda: comm.allgather(comm.rank),
        "exchange_1k": lambda: _ring(comm, SMALL, 0.0),
        "exchange_64k": lambda: _ring(comm, LARGE, 0.0),
        "exchange_1m": lambda: _ring(comm, HUGE, 0.0),
    }
    out = {}
    for name in COLLECTIVES:
        times = []
        for _ in range(max(reps // 4, 5) if name == "exchange_1m" else reps):
            t0 = time.perf_counter()
            calls[name]()
            times.append(time.perf_counter() - t0)
        out[name] = 1e6 * median(times)
    return out


def _config(size: int, backend: str, warm: bool = False) -> RunConfig:
    return RunConfig(size=size, backend=backend, start_method="fork", warm_pool=warm)


class W(Workload):
    name = "comm_replay"
    primary = "block"
    pin = False  # its ranks are processes and need the cores
    calibrate = False  # a block is pipe and wake-up latency, not core speed

    def setup(self) -> None:
        self.shm_before = set(os.listdir("/dev/shm"))
        self.size = ranks()
        self.machine = Machine(_config(self.size, "process", warm=True))
        self.machine.run(noop)  # spawn the long-lived ranks

    def run(self, seconds: float, ops: Ops) -> None:
        blocks = 100 if self.quick else max(
            ADAPT_EVERY, ADAPT_EVERY * round(seconds * BLOCKS_PER_SECOND / ADAPT_EVERY))
        self.sizes = self.rng.choice([SMALL, LARGE], size=(blocks, 5))
        with ops.rec.span("machine_run", "parallel"):
            self.result = self.machine.run(replay, self.sizes, ops.rec.enabled)
        rank0 = self.result.values[0]
        ops.record("block", *zip(*rank0["steps"]))
        ops.record("adapt", *zip(*rank0["adapts"]))
        ops.failed += sum(v["bad"] for v in self.result.values)
        for name, start, end in rank0["spans"]:
            ops.rec.add(name, "parallel", start, end)

    def verify(self, ops: Ops) -> int:
        return int(len(self.result.values) != self.size)

    def inputs(self) -> dict:
        return {"ranks": self.size, "blocks": len(self.sizes),
                "payload_doubles": int(self.sizes.sum())}

    def close(self) -> None:
        self.machine.close()

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        reps = 20 if self.quick else 200
        out: Dict[str, float] = {}
        with rec.span("probe_process", "parallel", probe=True):
            process = self.machine.run(probe_collectives, reps).values[0]
        self.close()
        with rec.span("probe_thread", "parallel", probe=True):
            thread = Machine(_config(self.size, "thread")).run(probe_collectives, reps).values[0]
        for name in COLLECTIVES:
            out[f"parallel.process.{name}_us"] = process[name]
            out[f"parallel.thread.{name}_us"] = thread[name]
        out["parallel.exchange_mb_per_s"] = 8.0 * HUGE / process["exchange_1m"]
        for backend, n in (("thread", 5), ("process", 3)):
            launches = []
            for _ in range(n):
                t0 = time.perf_counter()
                with rec.span(f"launch_{backend}", "parallel", probe=True):
                    Machine(_config(self.size, backend)).run(noop)
                launches.append(time.perf_counter() - t0)
            out[f"parallel.launch_{backend}_ms"] = 1e3 * median(launches)
        stats = self.result.report.outcomes[0].stats
        out["parallel.messages"] = stats.total_messages
        out["parallel.bytes_metered"] = stats.total_bytes
        # Eight ranks on fewer cores: counts only, no wall clock.
        wide = Machine(_config(8, "thread")).run(replay, self.sizes[: 2 * ADAPT_EVERY], False)
        stats8 = wide.report.outcomes[0].stats
        out["parallel.p8.messages"] = stats8.total_messages
        out["parallel.p8.bytes_metered"] = stats8.total_bytes
        out["parallel.shm_leaked"] = len(set(os.listdir("/dev/shm")) - self.shm_before)
        out["parallel.replay.block_p90_ms"] = 1e3 * percentile(ops.samples["block"], 90)
        out["parallel.replay.adapt_p50_ms"] = 1e3 * median(ops.samples["adapt"])
        return out
