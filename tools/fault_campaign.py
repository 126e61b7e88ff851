"""Fault-injection campaign: prove the machine recovers from every site.

A two-pass harness over a seeded AMR scenario (build a brick forest,
then refine / balance / partition cycles with per-cycle checkpoints):

1. **Recording pass** — the scenario runs fault-free on the thread
   backend under a recording communicator that enumerates every
   collective call site ``(rank, call index, op, phase)`` and collects
   the *golden trace*: the forest checksum and checkpoint wire hash
   after every cycle, plus the final state.
2. **Campaign pass** — for every requested backend and fault kind
   (``crash``, ``die``, ``corrupt``, ``truncate``, ``delay``,
   ``slow``), a scenario is launched per enumerated site with exactly
   one fault injected there on attempt 0, under the full observability
   stack (sanitizer + watchdog) and the self-healing policy
   (``recover=True``; on the process backend also a warm-replacement
   budget, so ``die`` faults exercise in-place respawn).

Every scenario must end in one of the acceptable terminal states:

* **bit-exact recovery** — the run completes and the final forest
  checksum, element count, and level histogram equal the fault-free
  baseline (the scenario re-validates forest invariants every cycle);
* **typed, rank-attributed error** — the run raises
  :class:`~repro.parallel.backend.SpmdError` naming the failed rank.

Anything else — a silently wrong final state, an untyped escape, a
stranded ``/dev/shm`` segment, a recovery without a flight-recorder
artifact — fails the campaign.  The full matrix is written as a JSON
report.

With ``--service`` the same site matrix is replayed through a
multi-tenant :class:`~repro.service.ForestService`: an *attacker*
tenant absorbs the injected faults while a *victim* tenant runs the
identical scenario concurrently on the same warm worker pools.  The
bar rises accordingly — besides the per-session outcomes above, every
victim session must return values bit-identical to a fault-free golden
service pass, a saturated service must shed with a typed
``ServiceOverloadError`` in under a second, and closing the service
must strand nothing (no queued sessions, no ``/dev/shm`` entries).

Usage::

    PYTHONPATH=src python tools/fault_campaign.py \
        --backends thread,process --ranks 2 --budget 40 \
        --out fault_campaign.json

    PYTHONPATH=src python tools/fault_campaign.py --service \
        --backends thread,process --ranks 2 --budget 24 \
        --out service_campaign.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d
from repro.p4est.checkpoint import restore
from repro.p4est.checkpoint import save as p4save
from repro.p4est.forest import Forest, octants_to_wire
from repro.parallel import (
    FaultPlan,
    Faults,
    FaultyComm,
    Machine,
    MemoryCheckpointStore,
    RunConfig,
    Sanitize,
    SpmdError,
    Watchdog,
)
from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.faults import CORRUPT, CRASH, DELAY, DIE, SLOW, TRUNCATE, Fault
from repro.parallel.ops import ReduceOp
from repro.service import (
    DeadlineExceededError,
    ForestService,
    ServiceConfig,
    ServiceOverloadError,
)
from repro.trace.tracer import current_phase_path

CYCLES = 2
MAX_LEVEL = 3
TIMEOUT = 15.0


class CorruptionDetected(RuntimeError):
    """Typed in-run detection of a corrupted collective or checkpoint."""

    def __init__(self, rank: int, where: str) -> None:
        """Attribute the detection to ``rank`` at checkpoint ``where``."""
        super().__init__(f"rank {rank}: corruption detected at {where}")
        self.rank = rank
        self.where = where


# The seeded scenario ---------------------------------------------------------


def _wire_hash(wire: np.ndarray) -> str:
    """Content hash of a checkpoint's global wire array."""
    return hashlib.blake2b(
        np.ascontiguousarray(wire).tobytes(), digest_size=16
    ).hexdigest()


def _refine_mask(forest: Forest, cycle: int) -> np.ndarray:
    """Deterministic, partition-independent refinement marks for ``cycle``."""
    wire = octants_to_wire(forest.local)
    if not len(wire):
        return np.zeros(0, dtype=bool)
    key = wire[:, 0] * 7 + (wire[:, 1] >> 4) + wire[:, 2] + 3 * cycle
    return (key % 3) == 0


def scenario(comm: Comm, store: Any, golden: Optional[Dict[str, list]] = None):
    """The seeded rank program: adapt cycles with guarded checkpoints.

    With ``golden=None`` the program records the golden trace (fault-free
    recording pass).  Otherwise every cycle's forest checksum — and, on
    the gather root, the committed checkpoint's wire hash — is compared
    against the golden trace; any deviation raises the typed
    :class:`CorruptionDetected`, turning silent corruption into a
    recoverable, rank-attributed failure.
    """
    recording = golden is None
    trace: Dict[str, list] = {"csum": [], "wire": [], "levels": []}
    conn = brick_2d(2, 1)
    ck = store.load()
    if ck is not None:
        forest, _, meta = restore(conn, comm, ck)
        start = int(meta["cycle"])
    else:
        forest = Forest.new(conn, comm, level=1)
        start = 0
    for cycle in range(start, CYCLES):
        forest.refine(mask=_refine_mask(forest, cycle), maxlevel=MAX_LEVEL)
        balance(forest)
        forest.partition()
        forest.validate()
        csum = forest.checksum()
        if recording:
            trace["csum"].append(csum)
        elif csum != golden["csum"][cycle]:
            raise CorruptionDetected(comm.rank, f"cycle {cycle} forest checksum")
        ckpt = p4save(forest, meta={"cycle": cycle + 1})
        if ckpt is not None:  # the gather root guards what gets committed
            wh = _wire_hash(ckpt.wire)
            if recording:
                trace["wire"].append(wh)
            elif wh != golden["wire"][cycle]:
                raise CorruptionDetected(
                    comm.rank, f"cycle {cycle} checkpoint wire hash"
                )
        store.save(ckpt)
    forest.validate()
    # The final read-out collectives are fault sites too: verify them
    # against the golden trace so a corrupted diagnostic can never be
    # reported as a clean result.
    final_csum = forest.checksum()
    if not recording and final_csum != golden["csum"][-1]:
        raise CorruptionDetected(comm.rank, "final forest checksum")
    levels = tuple(int(x) for x in forest.levels_histogram())
    if recording:
        trace["levels"] = list(levels)
    elif list(levels) != list(golden["levels"]):
        raise CorruptionDetected(comm.rank, "final level histogram")
    final = {
        "checksum": final_csum,
        "elements": forest.global_count,
        "levels": levels,
    }
    return {"final": final, "trace": trace if recording else None}


# Recording pass --------------------------------------------------------------


class _RecordingComm(CommDecorator):
    """A :class:`Comm` decorator that enumerates this rank's call sites."""

    def __init__(self, inner: Comm, recorder: "RecordingWrapper") -> None:
        super().__init__(inner)
        self.recorder = recorder
        self.calls = 0

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Log the call site, then delegate."""
        self.recorder.note(self.rank, self.calls, op, current_phase_path())
        self.calls += 1
        return super()._invoke(op, payload, root, reduce_op)


class RecordingWrapper:
    """``Faults(wrapper=...)`` hook collecting every rank's call sites."""

    def __init__(self) -> None:
        """Create an empty, thread-safe site log."""
        self._lock = threading.Lock()
        self.records: List[Tuple[int, int, str, str]] = []

    def __call__(self, comm: Comm, attempt: int) -> Comm:
        """Wrap one rank's communicator for recording."""
        return _RecordingComm(comm, self)

    def note(self, rank: int, call: int, op: str, phase: str) -> None:
        """Log one call site."""
        with self._lock:
            self.records.append((rank, call, op, phase))


class AttemptZeroFaults:
    """``Faults(wrapper=...)`` hook injecting a plan on attempt 0 only.

    Module-level (picklable) so process-backend workers can carry it;
    retries and post-replacement re-entries run fault-free, which keeps
    every restore path clean.
    """

    def __init__(self, plan: FaultPlan) -> None:
        """Bind the fault plan to inject."""
        self.plan = plan

    def __call__(self, comm: Comm, attempt: int) -> Comm:
        """Fault-wrap attempt 0; later attempts get the bare comm."""
        # spmdlint: ignore[SPMD006] -- Faults(wrapper=) idiom: this callable IS the fault layer, invoked per attempt by the machine.
        return FaultyComm(comm, self.plan) if attempt == 0 else comm


def record_sites(ranks: int) -> Tuple[Dict[str, Any], Dict[Tuple[int, int], Dict]]:
    """Fault-free recording pass: golden trace, baseline, and site map."""
    recorder = RecordingWrapper()
    machine = Machine(
        RunConfig(size=ranks, backend="thread", layers=[Faults(wrapper=recorder)])
    )
    res = machine.run(scenario, None, store=MemoryCheckpointStore())
    out = res.values[0]
    sites = {
        (rank, call): {"op": op, "phase": phase}
        for rank, call, op, phase in recorder.records
    }
    return {"golden": out["trace"], "baseline": out["final"]}, sites


# Campaign pass ---------------------------------------------------------------


def _shm_listing() -> set:
    """Names currently present in ``/dev/shm`` (empty off Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_scenario(
    backend: str,
    ranks: int,
    fault: Fault,
    golden: Dict[str, list],
    baseline: Dict[str, Any],
) -> Dict[str, Any]:
    """Launch one faulted scenario and classify its terminal state."""
    watchdog = Watchdog(timeout=TIMEOUT)
    cfg_kwargs: Dict[str, Any] = {}
    if backend == "process":
        cfg_kwargs["start_method"] = "fork"
        cfg_kwargs["max_replacements"] = 2
    cfg = RunConfig(
        size=ranks,
        backend=backend,
        recover=True,
        max_retries=3,
        timeout=TIMEOUT,
        layers=[
            Faults(wrapper=AttemptZeroFaults(FaultPlan([fault]))),
            Sanitize(),
            watchdog,
        ],
        **cfg_kwargs,
    )
    shm_before = _shm_listing()
    row: Dict[str, Any] = {
        "backend": backend,
        "kind": fault.kind,
        "rank": fault.rank,
        "call": fault.at_call,
    }
    t0 = time.perf_counter()
    try:
        res = Machine(cfg).run(scenario, golden, store=MemoryCheckpointStore())
    except SpmdError as exc:
        row["outcome"] = "typed-error"
        row["error"] = repr(exc)
        row["failed_rank"] = exc.failed_rank
        if exc.failed_rank is None:
            row["outcome"] = "unattributed-error"
    except Exception as exc:  # noqa: BLE001 - anything untyped fails the campaign
        row["outcome"] = "untyped-error"
        row["error"] = repr(exc)
    else:
        final = res.values[0]["final"]
        rec = res.recovery
        row["recoveries"] = rec.recoveries if rec else 0
        row["replacements"] = rec.replacements if rec else 0
        row["bit_exact"] = final == baseline
        if not row["bit_exact"]:
            row["outcome"] = "silent-corruption"
            row["error"] = f"final state {final} != baseline {baseline}"
        elif rec and (rec.recoveries or rec.replacements):
            row["outcome"] = "recovered"
            row["artifacts"] = len(rec.artifacts)
            if not rec.artifacts:
                row["outcome"] = "missing-artifact"
        else:
            row["outcome"] = "benign"
    row["seconds"] = round(time.perf_counter() - t0, 3)
    leaked = sorted(_shm_listing() - shm_before)
    if leaked:
        row["outcome"] = "shm-leak"
        row["leaked"] = leaked
    return row


_OK_OUTCOMES = {"recovered", "benign", "typed-error"}


def _fault_seconds(kind: str) -> float:
    """The ``seconds`` knob per fault kind (small, CI-friendly values).

    ``SLOW`` is *persistent* — it fires on every collective from
    ``at_call`` on — so its per-call delay is kept tiny: the campaign's
    claim is that a permanent straggler leaves results bit-exact, not
    that it trips the watchdog (deadline coverage lives in
    ``tests/parallel/test_deadline.py``).
    """
    if kind == DELAY:
        return 0.002
    if kind == SLOW:
        return 0.003
    return 0.0


def run_campaign(
    backends: List[str],
    ranks: int,
    kinds: Optional[List[str]],
    budget: int,
    out_path: str,
    progress: Callable[[str], None] = lambda s: print(s, flush=True),
) -> Dict[str, Any]:
    """Record, enumerate, inject, and report; returns the report dict."""
    bundle, sites = record_sites(ranks)
    golden, baseline = bundle["golden"], bundle["baseline"]
    site_list = sorted(sites)
    progress(
        f"recorded {len(site_list)} collective call sites over {ranks} ranks; "
        f"baseline {baseline}"
    )
    results: List[Dict[str, Any]] = []
    for backend in backends:
        use_kinds = kinds or (
            [CRASH, DIE, CORRUPT, TRUNCATE, DELAY, SLOW]
            if backend == "process"
            else [CRASH, CORRUPT, TRUNCATE, DELAY, SLOW]
        )
        scenarios = [
            Fault(kind, rank, call, seconds=_fault_seconds(kind))
            for kind in use_kinds
            for rank, call in site_list
        ]
        if budget and len(scenarios) > budget:
            idx = np.linspace(0, len(scenarios) - 1, budget).astype(int)
            scenarios = [scenarios[i] for i in sorted(set(idx.tolist()))]
        progress(f"[{backend}] running {len(scenarios)} fault scenarios")
        for i, fault in enumerate(scenarios):
            row = run_scenario(backend, ranks, fault, golden, baseline)
            row["op"] = sites[(fault.rank, fault.at_call)]["op"]
            row["phase"] = sites[(fault.rank, fault.at_call)]["phase"]
            results.append(row)
            if row["outcome"] not in _OK_OUTCOMES:
                progress(f"[{backend}] FAIL {row}")
            elif (i + 1) % 20 == 0:
                progress(f"[{backend}] {i + 1}/{len(scenarios)} done")
    counts: Dict[str, int] = {}
    for row in results:
        counts[row["outcome"]] = counts.get(row["outcome"], 0) + 1
    ok = all(row["outcome"] in _OK_OUTCOMES for row in results)
    report = {
        "ranks": ranks,
        "backends": backends,
        "cycles": CYCLES,
        "sites": len(site_list),
        "baseline": {k: str(v) for k, v in baseline.items()},
        "scenarios": len(results),
        "outcomes": counts,
        "pass": ok,
        "results": results,
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    progress(f"campaign {'PASS' if ok else 'FAIL'}: {counts} -> {out_path}")
    return report


# Service campaign ------------------------------------------------------------
#
# ``--service`` swaps the per-run harness for a multi-tenant one: a
# ForestService multiplexes an "attacker" tenant — whose sessions get
# exactly one fault injected at an enumerated collective site — with a
# "victim" tenant running the same scenario fault-free, concurrently, on
# the same warm worker pools.  The acceptance bar adds to the batch
# campaign's: every victim session must stay bit-identical to the
# fault-free golden values, overload must shed fast with a typed error,
# and closing the service must strand nothing (queue or /dev/shm).


def _nap(comm: Comm, seconds: float) -> int:
    """Rank program occupying a worker (module-level for picklability)."""
    time.sleep(seconds)
    return comm.rank


def _service_config(backend: str, ranks: int, store_root: str) -> ServiceConfig:
    """The campaign's service shape for one backend."""
    kwargs: Dict[str, Any] = {}
    if backend == "process":
        kwargs["start_method"] = "fork"
        kwargs["max_replacements"] = 2
    return ServiceConfig(
        ranks=ranks,
        backend=backend,
        workers=2,
        max_queue=64,
        default_deadline=None,  # hang detection is the watchdog's job here
        session_retries=2,
        # Keep the breaker out of the blast-radius accounting: a degraded
        # attacker would dodge rank-targeted faults and muddy the matrix
        # (breaker behavior is covered by tests/service/).
        breaker_threshold=10_000,
        timeout=TIMEOUT,
        layers=[Sanitize()],
        store_root=store_root,
        backoff_base=0.01,
        backoff_cap=0.05,
        **kwargs,
    )


def _classify_attacker(
    svc: ForestService, sid: str, baseline: Dict[str, Any]
) -> Dict[str, Any]:
    """Classify one faulted session's terminal state."""
    row: Dict[str, Any] = {}
    try:
        res = svc.result(sid, timeout=240)
    except DeadlineExceededError as exc:
        row["outcome"] = (
            "typed-error" if exc.failed_rank is not None else "unattributed-error"
        )
        row["error"] = repr(exc)
        row["failed_rank"] = exc.failed_rank
    except SpmdError as exc:
        row["outcome"] = (
            "typed-error" if exc.failed_rank is not None else "unattributed-error"
        )
        row["error"] = repr(exc)
        row["failed_rank"] = exc.failed_rank
    except Exception as exc:  # noqa: BLE001 - anything untyped fails the campaign
        row["outcome"] = "untyped-error"
        row["error"] = repr(exc)
    else:
        attempts = svc.snapshot(sid)["attempts"]
        rec = res.recovery
        row["attempts"] = attempts
        row["replacements"] = rec.replacements if rec else 0
        final = res.values[0]["final"]
        if final != baseline:
            row["outcome"] = "silent-corruption"
            row["error"] = f"final state {final} != baseline {baseline}"
        elif attempts > 1 or (rec and (rec.recoveries or rec.replacements)):
            row["outcome"] = "recovered"
        else:
            row["outcome"] = "benign"
    return row


def _overload_probe(backend: str, ranks: int) -> Dict[str, Any]:
    """Prove a saturated service sheds synchronously, typed, and fast."""
    kwargs: Dict[str, Any] = {"start_method": "fork"} if backend == "process" else {}
    cfg = ServiceConfig(
        ranks=max(1, min(ranks, 2)),
        backend=backend,
        workers=1,
        max_queue=1,
        default_deadline=None,
        session_retries=0,
        **kwargs,
    )
    with ForestService(cfg) as svc:
        running = svc.submit(_nap, 0.8)
        deadline = time.monotonic() + 10.0
        while svc.status()["queue_depth"] > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = svc.submit(_nap, 0.0)
        t0 = time.perf_counter()
        try:
            svc.submit(_nap, 0.0)
        except ServiceOverloadError as exc:
            shed = {
                "typed": True,
                "seconds": round(time.perf_counter() - t0, 4),
                "queue_depth": exc.queue_depth,
                "max_queue": exc.max_queue,
            }
        else:
            shed = {"typed": False, "seconds": round(time.perf_counter() - t0, 4)}
        svc.result(running, timeout=60)
        svc.result(queued, timeout=60)
    shed["ok"] = bool(shed["typed"]) and shed["seconds"] < 1.0
    return shed


def run_service_campaign(
    backends: List[str],
    ranks: int,
    kinds: Optional[List[str]],
    budget: int,
    out_path: str,
    progress: Callable[[str], None] = lambda s: print(s, flush=True),
) -> Dict[str, Any]:
    """The multi-tenant campaign; returns (and writes) the report dict."""
    import shutil
    import tempfile

    bundle, sites = record_sites(ranks)
    golden, baseline = bundle["golden"], bundle["baseline"]
    site_list = sorted(sites)
    progress(
        f"[service] recorded {len(site_list)} collective call sites over "
        f"{ranks} ranks; baseline {baseline}"
    )
    results: List[Dict[str, Any]] = []
    overloads: Dict[str, Any] = {}
    victims_ok = True
    leaked_any: List[str] = []
    for backend in backends:
        use_kinds = kinds or (
            [CRASH, DIE, CORRUPT, TRUNCATE, DELAY, SLOW]
            if backend == "process"
            else [CRASH, CORRUPT, TRUNCATE, DELAY, SLOW]
        )
        scenarios = [
            Fault(kind, rank, call, seconds=_fault_seconds(kind))
            for kind in use_kinds
            for rank, call in site_list
        ]
        if budget and len(scenarios) > budget:
            idx = np.linspace(0, len(scenarios) - 1, budget).astype(int)
            scenarios = [scenarios[i] for i in sorted(set(idx.tolist()))]
        progress(f"[service:{backend}] running {len(scenarios)} fault scenarios")
        store_root = tempfile.mkdtemp(prefix="svc-campaign-")
        shm_before = _shm_listing()
        try:
            with ForestService(_service_config(backend, ranks, store_root)) as svc:
                # Fault-free golden pass *through the service* — the
                # victims' bit-identical bar for the chaos rounds.
                gsid = svc.submit(scenario, golden, tenant="victim", recover=True)
                golden_values = svc.result(gsid, timeout=240).values
                for i, fault in enumerate(scenarios):
                    plan = FaultPlan([fault])
                    attacker = svc.submit(
                        scenario,
                        golden,
                        tenant="attacker",
                        recover=True,
                        layers=[Faults(wrapper=AttemptZeroFaults(plan))],
                    )
                    victim = svc.submit(
                        scenario, golden, tenant="victim", recover=True
                    )
                    row = {
                        "backend": backend,
                        "kind": fault.kind,
                        "rank": fault.rank,
                        "call": fault.at_call,
                        "op": sites[(fault.rank, fault.at_call)]["op"],
                        "phase": sites[(fault.rank, fault.at_call)]["phase"],
                    }
                    t0 = time.perf_counter()
                    row.update(_classify_attacker(svc, attacker, baseline))
                    victim_values = svc.result(victim, timeout=240).values
                    row["victim_ok"] = victim_values == golden_values
                    row["seconds"] = round(time.perf_counter() - t0, 3)
                    victims_ok = victims_ok and row["victim_ok"]
                    results.append(row)
                    if row["outcome"] not in _OK_OUTCOMES or not row["victim_ok"]:
                        progress(f"[service:{backend}] FAIL {row}")
                    elif (i + 1) % 10 == 0:
                        progress(
                            f"[service:{backend}] {i + 1}/{len(scenarios)} done"
                        )
                drained = svc.status()["queue_depth"] == 0
        finally:
            shutil.rmtree(store_root, ignore_errors=True)
        leaked = sorted(_shm_listing() - shm_before)
        if leaked:
            leaked_any.extend(f"{backend}:{name}" for name in leaked)
            progress(f"[service:{backend}] stranded /dev/shm entries: {leaked}")
        if not drained:
            progress(f"[service:{backend}] queue not drained at close")
            victims_ok = False
        overloads[backend] = _overload_probe(backend, ranks)
        progress(f"[service:{backend}] overload probe {overloads[backend]}")
    counts: Dict[str, int] = {}
    for row in results:
        counts[row["outcome"]] = counts.get(row["outcome"], 0) + 1
    ok = (
        all(row["outcome"] in _OK_OUTCOMES for row in results)
        and victims_ok
        and all(o["ok"] for o in overloads.values())
        and not leaked_any
    )
    report = {
        "mode": "service",
        "ranks": ranks,
        "backends": backends,
        "cycles": CYCLES,
        "sites": len(site_list),
        "baseline": {k: str(v) for k, v in baseline.items()},
        "scenarios": len(results),
        "outcomes": counts,
        "victims_bit_identical": victims_ok,
        "overload": overloads,
        "shm_leaks": leaked_any,
        "pass": ok,
        "results": results,
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    progress(f"service campaign {'PASS' if ok else 'FAIL'}: {counts} -> {out_path}")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit status 1 on any unacceptable terminal state."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backends", default="thread,process")
    ap.add_argument("--ranks", type=int, default=2)
    ap.add_argument(
        "--kinds", default=None, help="comma list; default depends on backend"
    )
    ap.add_argument(
        "--budget",
        type=int,
        default=48,
        help="max scenarios per backend (0 = exhaustive)",
    )
    ap.add_argument(
        "--service",
        action="store_true",
        help="multi-tenant mode: inject at one ForestService tenant while "
        "a victim tenant runs concurrently and must stay bit-identical",
    )
    ap.add_argument("--out", default="fault_campaign.json")
    args = ap.parse_args(argv)
    runner = run_service_campaign if args.service else run_campaign
    report = runner(
        [b.strip() for b in args.backends.split(",") if b.strip()],
        args.ranks,
        [k.strip() for k in args.kinds.split(",")] if args.kinds else None,
        args.budget,
        args.out,
    )
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
