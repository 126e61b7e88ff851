"""Hang watchdog and per-rank flight recorder for the SPMD machine.

A hang — one rank leaving a barrier early, never arriving, or wedged in
compute while its peers wait in a collective — is the failure mode that
*wedges* a run instead of crashing it.  This module turns hangs into
attributable faults:

* :class:`FlightRecorder` — a bounded ring buffer of the last N comm
  operations per rank (op, per-rank sequence number, phase label borrowed
  from :mod:`repro.trace`, enter/exit timestamps), the NCCL-style flight
  recorder dumped to a JSON artifact on any hang, mismatch, or
  :class:`~repro.parallel.backend.SpmdError` so failures are replayable
  post-mortem.
* :class:`WatchdogComm` — a :class:`~repro.parallel.comm.Comm` decorator
  (same pattern as :class:`~repro.parallel.faults.FaultyComm`) that
  maintains a per-rank *heartbeat* around every blocking comm call and
  feeds the flight recorder.
* :class:`HangWatchdog` — the monitor.  The machine arms every barrier
  wait with the watchdog's timeout; when a wait times out the watchdog
  diagnoses the heartbeat table (who is inside which collective since
  when, who has exited or diverged), names the offending rank, dumps the
  flight recorder, and records a :class:`HangError` so the failure
  propagates with ``SpmdError.failed_rank`` set — which is exactly what
  a recovering run (``RunConfig(recover=True)``) needs to trigger its
  checkpoint/shrink/retry path instead of wedging.

Disabled (the default), none of this is on any comm path; the machine's
only residual cost is the ``timeout`` argument of ``Barrier.wait``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.ops import ReduceOp
from repro.parallel.sanitizer import reduce_op_name
from repro.trace.tracer import current_phase_path

#: Environment variable overriding the default artifact directory.
ARTIFACT_DIR_ENV = "REPRO_FLIGHTREC_DIR"


class HangError(RuntimeError):
    """A rank was stuck in (or absent from) a collective past the timeout.

    ``rank`` is the diagnosed offender: the rank that exited early or
    diverged while its peers waited, or ``None`` when every rank was
    waiting in the same operation (a timeout too short, not a hang).
    ``artifact`` is the flight-recorder JSON path when one was dumped.
    """

    def __init__(
        self, message: str, rank: Optional[int] = None, artifact: Optional[str] = None
    ) -> None:
        """Build the error with the diagnosed rank and artifact path."""
        super().__init__(message)
        self.rank = rank
        self.artifact = artifact

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle with the diagnosed rank and artifact intact (for workers)."""
        return (
            type(self),
            (self.args[0] if self.args else "", self.rank, self.artifact),
        )


@dataclass
class CommRecord:
    """One comm operation on one rank's flight-recorder timeline."""

    seq: int
    op: str
    detail: str
    phase: str
    t_enter: float
    t_exit: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the artifact dump)."""
        return {
            "seq": self.seq,
            "op": self.op,
            "detail": self.detail,
            "phase": self.phase,
            "t_enter": self.t_enter,
            "t_exit": self.t_exit,
            "open": self.t_exit is None,
        }


class FlightRecorder:
    """Bounded ring buffer of the most recent comm operations of one rank."""

    def __init__(self, rank: int, capacity: int = 64) -> None:
        """Create an empty recorder for ``rank`` holding ``capacity`` records."""
        self.rank = rank
        self.capacity = capacity
        self.records: deque = deque(maxlen=capacity)
        self.total = 0  # lifetime count, including evicted records

    def append(self, record: CommRecord) -> None:
        """Push one record, evicting the oldest beyond capacity."""
        self.records.append(record)
        self.total += 1

    def snapshot(self) -> List[Dict[str, Any]]:
        """The retained records as JSON-serializable dicts (oldest first)."""
        return [r.to_dict() for r in self.records]


class _RankState:
    """Watchdog-side view of one rank: recorder, heartbeat, liveness."""

    __slots__ = ("recorder", "current", "finished", "errored", "calls")

    def __init__(self, rank: int, capacity: int) -> None:
        self.recorder = FlightRecorder(rank, capacity)
        self.current: Optional[CommRecord] = None  # open op (the heartbeat)
        self.finished = False
        self.errored = False
        self.calls = 0


class HangWatchdog:
    """Monitor for one (or a sequence of) SPMD run(s).

    Pass via ``RunConfig(layers=[Watchdog(HangWatchdog(timeout=...))])``
    (or let ``Watchdog(timeout=...)`` build one); the
    machine attaches it per attempt (:meth:`attach`), arms every barrier
    wait with ``timeout`` seconds, and consults :meth:`on_timeout` when a
    wait expires without a recorded rank failure.  ``history`` bounds the
    per-rank flight recorder; ``artifact_dir`` receives the JSON dumps
    (default: ``$REPRO_FLIGHTREC_DIR`` or the system temp directory).
    """

    def __init__(
        self,
        timeout: float = 30.0,
        history: int = 64,
        artifact_dir: Optional[str] = None,
    ) -> None:
        """Configure timeout seconds, ring-buffer depth, and dump directory."""
        if timeout <= 0:
            raise ValueError("watchdog timeout must be positive")
        if history < 1:
            raise ValueError("flight-recorder history must be >= 1")
        self.timeout = timeout
        self.history = history
        if artifact_dir is None:
            artifact_dir = os.environ.get(ARTIFACT_DIR_ENV) or os.path.join(
                tempfile.gettempdir(), "repro-flightrec"
            )
        self.artifact_dir = artifact_dir
        self._lock = threading.Lock()
        self._diag_lock = threading.Lock()  # serializes on_timeout end to end
        self._ranks: List[_RankState] = []
        self._epoch = 0.0
        self._dumps = 0
        self.artifacts: List[str] = []
        self.last_artifact: Optional[str] = None
        self._attempt_artifact: Optional[str] = None
        self._timeout_handled = False

    # Per-attempt lifecycle (called by the machine) -------------------------

    def attach(self, size: int) -> None:
        """Reset the per-rank state for a fresh ``size``-rank attempt."""
        with self._lock:
            self._ranks = [_RankState(r, self.history) for r in range(size)]
            self._epoch = time.perf_counter()
            self._attempt_artifact = None
            self._timeout_handled = False

    # Heartbeat protocol (called from rank threads) -------------------------

    def enter(self, rank: int, op: str, detail: str, phase: str) -> None:
        """Record that ``rank`` is entering a blocking ``op`` in ``phase``.

        The caller supplies the phase path: it is known on the rank's
        side, while the monitor may live in another process.
        """
        rs = self._ranks[rank]
        rec = CommRecord(
            seq=rs.calls,
            op=op,
            detail=detail,
            phase=phase,
            t_enter=time.perf_counter() - self._epoch,
        )
        rs.calls += 1
        rs.recorder.append(rec)
        rs.current = rec

    def exit(self, rank: int) -> None:
        """Record that ``rank`` left the blocking op it was in."""
        rs = self._ranks[rank]
        if rs.current is not None:
            rs.current.t_exit = time.perf_counter() - self._epoch
            rs.current = None

    def finished(self, rank: int, errored: bool = False) -> None:
        """Mark ``rank``'s program as returned (or raised)."""
        rs = self._ranks[rank]
        rs.finished = True
        rs.errored = errored

    # Diagnosis -------------------------------------------------------------

    def _rank_lines(self) -> List[str]:
        """One human-readable state line per rank (for error messages)."""
        now = time.perf_counter() - self._epoch
        lines = []
        for r, rs in enumerate(self._ranks):
            if rs.current is not None:
                c = rs.current
                where = f" in {c.phase}" if c.phase else ""
                lines.append(
                    f"rank {r}: waiting in {c.op} (call #{c.seq}{where}, "
                    f"{now - c.t_enter:.2f}s)"
                )
            elif rs.errored:
                lines.append(f"rank {r}: raised (after {rs.calls} comm calls)")
            elif rs.finished:
                lines.append(f"rank {r}: returned (after {rs.calls} comm calls)")
            else:
                lines.append(f"rank {r}: outside comm (after {rs.calls} comm calls)")
        return lines

    def diagnose(self) -> Tuple[Optional[int], List[str]]:
        """Name the offending rank from the heartbeat table.

        Ranks *absent* from any comm call while peers wait (returned
        early, or wedged in compute) are the offenders; with every rank
        inside a call, a rank whose (op, seq) diverges from the majority
        is.  Returns ``(offender, per-rank state lines)``; the offender is
        ``None`` when all ranks wait in the same call (not attributable —
        most likely the timeout is shorter than the collective).
        """
        absent = [
            r
            for r, rs in enumerate(self._ranks)
            if rs.current is None and not rs.errored
        ]
        lines = self._rank_lines()
        if absent and len(absent) < len(self._ranks):
            return min(absent), lines
        sites: Dict[Tuple[str, int], List[int]] = {}
        for r, rs in enumerate(self._ranks):
            if rs.current is not None:
                sites.setdefault((rs.current.op, rs.current.seq), []).append(r)
        if len(sites) > 1:
            # Divergent call sites: the minority site's lowest rank.
            minority = min(sites.values(), key=lambda ranks: (len(ranks), ranks[0]))
            return minority[0], lines
        return None, lines

    # Artifact dump ---------------------------------------------------------

    def dump(self, reason: str, extra: Optional[Dict[str, Any]] = None) -> str:
        """Write the flight recorder to a JSON artifact; returns its path.

        The artifact holds one entry per rank — liveness, open heartbeat,
        and the retained ring of comm records — plus the ``reason`` and
        any ``extra`` context (e.g. the hang diagnosis, a serialized
        :class:`~repro.parallel.faults.FaultPlan`).
        """
        with self._lock:
            idx = self._dumps
            self._dumps += 1
        payload: Dict[str, Any] = {
            "reason": reason,
            "timeout_seconds": self.timeout,
            "size": len(self._ranks),
            "ranks": [
                {
                    "rank": r,
                    "finished": rs.finished,
                    "errored": rs.errored,
                    "comm_calls": rs.calls,
                    "in_flight": rs.current.to_dict() if rs.current else None,
                    "records_retained": len(rs.recorder.records),
                    "records_total": rs.recorder.total,
                    "records": rs.recorder.snapshot(),
                }
                for r, rs in enumerate(self._ranks)
            ],
        }
        if extra:
            payload.update(extra)
        os.makedirs(self.artifact_dir, exist_ok=True)
        path = os.path.join(
            self.artifact_dir, f"flightrec-{os.getpid()}-{idx:03d}.json"
        )
        with open(path, "w") as f:
            json.dump(payload, f, indent=1)
        self.artifacts.append(path)
        self.last_artifact = path
        self._attempt_artifact = path
        return path

    def dump_for_failure(self, reason: str) -> Optional[str]:
        """Dump once per attempt (reused by hang and generic-failure paths)."""
        with self._lock:
            if self._attempt_artifact is not None:
                return self._attempt_artifact
        return self.dump(reason)

    def dump_replacement(self, dead_ranks: List[int], generation: int) -> str:
        """Dump the pre-rollback heartbeat table for a warm replacement.

        Called by the process backend's router *before* it resets the
        per-rank state for the new rollback generation, so the artifact
        shows exactly where every rank was when the dead worker was
        detected.  Unlike :meth:`dump_for_failure` this always writes a
        fresh artifact — each replacement event gets its own dump.
        """
        return self.dump(
            "replacement",
            extra={"dead_ranks": list(dead_ranks), "rollback_generation": generation},
        )

    # Timeout hook (called by the machine's barrier wait) -------------------

    def on_timeout(self, reporter_rank: int, shared: Any) -> None:
        """Diagnose a timed-out barrier wait and record the hang fault.

        Called by :meth:`ThreadComm._wait
        <repro.parallel.machine.ThreadComm>` when its barrier wait expires
        with no rank failure on record.  The first reporter wins: it
        diagnoses, dumps the artifact, and records a :class:`HangError`
        against the offending rank in the shared failure table before
        releasing the diagnosis lock, so concurrently timed-out peers
        always observe the recorded failure and cascade normally.
        """
        with self._diag_lock:
            if self._timeout_handled or shared.failed_rank is not None:
                return
            self._timeout_handled = True
            err_rank, error = self.timeout_fault(reporter_rank)
            shared.abort(err_rank, error)

    def timeout_fault(self, reporter_rank: int) -> Tuple[int, HangError]:
        """Diagnose a timeout into an attributed ``(rank, HangError)`` pair.

        Shared by the thread backend's :meth:`on_timeout` path and the
        process backend's parent router (which detects the stalled round
        itself and has no shared failure table).  Dumps the flight
        recorder as a side effect.
        """
        offender, lines = self.diagnose()
        path = self.dump("hang", extra={"diagnosis": lines, "offender": offender})
        detail = "; ".join(lines)
        if offender is None:
            msg = (
                f"collective timed out after {self.timeout}s with all ranks "
                f"waiting ({detail}) [flight recorder: {path}]"
            )
            err_rank = reporter_rank
        else:
            msg = (
                f"hang detected: rank {offender} left the collective pattern "
                f"({detail}) [flight recorder: {path}]"
            )
            err_rank = offender
        return err_rank, HangError(msg, rank=offender, artifact=path)


class WatchdogComm(CommDecorator):
    """A :class:`Comm` decorator feeding heartbeats and the flight recorder.

    Stats alias the wrapped comm's; the decorator composes with the fault,
    sanitizer, and tracing decorators in any order (the machine places it
    innermost, so heartbeats bracket the actual blocking wait).
    """

    def __init__(self, inner: Comm, watchdog: HangWatchdog) -> None:
        """Wrap ``inner`` so its operations report to ``watchdog``."""
        super().__init__(inner)
        self.watchdog = watchdog

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Heartbeat-bracket the delegated blocking operation."""
        if root is not None:
            detail = f"root={root}"
        elif reduce_op is not None:
            detail = f"op={reduce_op_name(reduce_op)}"
        elif op == "exchange":
            detail = f"dests={sorted(payload)}"
        else:
            detail = ""
        self.watchdog.enter(self.rank, op, detail, current_phase_path())
        try:
            return super()._invoke(op, payload, root, reduce_op)
        finally:
            self.watchdog.exit(self.rank)
