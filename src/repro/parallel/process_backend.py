"""The process execution backend: ranks are worker OS processes.

This is the backend that makes the machine scale the way the paper's
does: each rank runs in its own interpreter, so mangll element kernels
and octant sorts on different ranks execute truly concurrently instead
of time-slicing one GIL.  Semantics are identical to the thread backend
— same values, byte-exact :class:`~repro.parallel.stats.CommStats` —
because both share the :class:`~repro.parallel.backend.MeteredComm`
collective frontend; only the transport underneath differs.

Transport: each worker holds a duplex pipe to the parent, which runs a
router loop for the attempt.  Collectives are *lock-step rounds*: every
rank deposits its contribution (``put``), the router broadcasts the full
slot list back once all ranks have arrived, and each rank combines
locally (combines are pure, so local combination is deterministic and
identical to the thread backend's leader-combine).  Personalized
collectives (``exchange``, ``alltoall``, ``scatter``) use a ``route``
round instead: the router forwards to each rank only the items
addressed to it.  Every ndarray payload travels through the sender's
shared-memory arena (:mod:`repro.parallel.shm`); the pipe carries only
descriptors, and each receiving rank copies out only what it receives.

The observability stack crosses the process boundary by proxy: the
sanitizer table, the hang watchdog, and the checkpoint store live in the
parent; workers relay heartbeats, signature checks, and checkpoint
traffic over the same pipe (pipe FIFO ordering keeps heartbeats ahead of
the blocking operation they bracket).  Failure handling mirrors the
thread backend's shared-state protocol — lowest primary failure wins,
cascades never mask the cause — with one genuinely new power: a worker
that *dies* (SIGKILL included) is detected as a dropped connection and
attributed as that rank's failure, which is what lets resilient runs
recover from real process loss, not just simulated faults.

With an ``AttemptRequest.max_replacements`` budget the router goes one
step further: instead of aborting the attempt it performs a *warm
replacement*.  The dead rank is respawned as a fresh process while every
surviving worker receives a ``rollback`` message — delivered by the next
``_recv`` as a :class:`_RollbackSignal` — unwinds its program, reports
its rolled-back traffic with an ``rb-ack``, and re-enters the rank
program in place (reloading from the checkpoint store proxy).  The
router discards everything a survivor sent before its ack (pipe FIFO
makes all of it provably stale), resets the round protocol, sanitizer
table, and watchdog heartbeats, and bumps the per-worker attempt index
so attempt-0-only fault wrappers do not re-fire.  Replacement therefore
never tears the machine down; only an exhausted budget (or a respawn
that keeps failing) falls back to the classic abort → shrink/retry path.
See ``docs/BACKENDS.md`` for the full protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.parallel.backend import (
    AttemptRequest,
    AttemptResult,
    Backend,
    MeteredComm,
    RankOutcome,
    SpmdError,
    effective_timeout,
)
from repro.parallel.comm import Comm
from repro.parallel.layers import LayerContext, find_layer, wrap_comm
from repro.parallel.sanitizer import CallSignature, SanitizerState
from repro.parallel.shm import Arenas, arena_prefix, sweep
from repro.parallel.stats import CommStats
from repro.parallel.watchdog import HangError, WatchdogComm
from repro.trace.tracer import current_phase_path


class _RollbackSignal(BaseException):
    """Worker-internal unwind for an in-place rollback (never user-visible).

    Raised out of :meth:`ProcessComm._recv` when the router announces a
    warm replacement; carries the router's absolute rollback generation
    (echoed back in the ack, so acks from earlier generations are never
    mistaken for the current one — replacement workers included).
    Derives from ``BaseException`` so rank programs catching
    ``Exception`` cannot swallow it.
    """

    def __init__(self, gen: int) -> None:
        """Record the rollback generation being entered."""
        super().__init__(gen)
        self.gen = gen


def _dump_exc_chain(exc: BaseException) -> List[Tuple[str, Any]]:
    """Serialize ``exc`` and its ``__cause__`` chain for the pipe.

    Default pickling silently drops ``__cause__`` (only
    :class:`~repro.parallel.backend.SpmdError` ships it via
    ``__reduce__``), so the chain travels as an explicit list — one
    ``("p", pickle)`` or ``("r", repr)`` entry per link — and the parent
    relinks it.  Post-mortems then see the true root cause without
    re-reading the flight recorder.
    """
    entries: List[Tuple[str, Any]] = []
    cur: Optional[BaseException] = exc
    seen: Set[int] = set()
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        try:
            entries.append(("p", pickle.dumps(cur)))
        except Exception:  # noqa: BLE001 - unpicklable program error
            entries.append(("r", f"{type(cur).__name__}: {cur}"))
        cur = cur.__cause__
    return entries


def _load_exc_chain(rank: int, entries: List[Tuple[str, Any]]) -> BaseException:
    """Rebuild a worker's exception chain serialized by :func:`_dump_exc_chain`."""
    excs: List[BaseException] = []
    for kind, payload in entries:
        if kind == "p":
            try:
                excs.append(pickle.loads(payload))
                continue
            except Exception:  # noqa: BLE001 - undecodable on this side too
                payload = "(undecodable exception)"
        excs.append(RuntimeError(f"rank {rank} raised: {payload}"))
    if not excs:
        return RuntimeError(f"rank {rank} raised (unreported exception)")
    for parent, cause in zip(excs, excs[1:]):
        if parent.__cause__ is None:
            parent.__cause__ = cause
    return excs[0]


class ProcessComm(MeteredComm):
    """Worker-side communicator: lock-step pipe rounds + shared-memory arenas.

    One round = one message to the parent and one reply: a ``put``
    answered by every rank's slot, or a ``route`` answered by this rank's
    inbox alone.  ndarrays ride the worker process's
    :class:`~repro.parallel.shm.Arenas`; this rank copies out only what
    it receives.  The parent unlinks arenas, so a rank that finishes its
    program simply exits — it never contributes a phantom round that
    could complete a collective its peers should be hanging in.
    """

    def __init__(self, rank: int, size: int, conn: Any, arenas: Arenas) -> None:
        """Bind ``rank`` to its parent pipe ``conn`` and its worker's arenas."""
        super().__init__(rank, size)
        self._conn = conn
        self._arenas = arenas
        self._round = 0
        self.saw_abort = False

    # Pipe protocol ----------------------------------------------------------

    def _send(self, msg: Tuple[Any, ...]) -> None:
        """Fire one message at the parent router."""
        self._conn.send(msg)

    def _recv(self, expected: str) -> Tuple[Any, ...]:
        """Receive the next router message; ``abort`` preempts anything.

        An ``abort`` carries the failed rank and (for hangs) the
        diagnosis message; it raises the same cascaded
        :class:`~repro.parallel.backend.SpmdError` the thread backend's
        broken barrier produces.  A ``rollback`` (warm replacement in
        progress) raises :class:`_RollbackSignal`, unwinding the program
        so :func:`_worker_main` can acknowledge and re-enter it.
        """
        msg = self._conn.recv()
        tag = msg[0]
        if tag == "rollback":
            raise _RollbackSignal(msg[1])
        if tag == "abort":
            self.saw_abort = True
            failed, hang_msg = msg[1], msg[2]
            if hang_msg is not None:
                raise SpmdError(
                    f"SPMD hang (rank {failed}): {hang_msg}", failed_rank=failed
                ) from None
            raise SpmdError(
                f"SPMD run aborted (failure on rank {failed})", failed_rank=failed
            ) from None
        if tag != expected:
            raise RuntimeError(
                f"rank {self.rank}: protocol error, expected {expected!r} got {tag!r}"
            )
        return msg

    def _request(self, msg: Tuple[Any, ...], expected: str) -> Tuple[Any, ...]:
        """One synchronous request/reply round trip with the router."""
        self._send(msg)
        return self._recv(expected)

    def _round_trip(self, tag: str, payload: Any, reply: str) -> Any:
        """Run one lock-step round; returns the (still wired) reply body."""
        name, wired = self._arenas.wire(payload)
        msg = self._request((tag, self._round, name, wired), reply)
        if msg[1] != self._round:
            raise RuntimeError(
                f"rank {self.rank}: round skew (at {self._round}, router at {msg[1]})"
            )
        self._round += 1
        self._arenas.parity ^= 1  # the round completed: see repro.parallel.shm
        return msg[2]

    # Transport primitives ---------------------------------------------------

    def _wait(self) -> int:
        """One synchronization round (no payload)."""
        self._round_trip("put", None, "slots")
        return 0 if self.rank == 0 else 1

    def _collect(self, contribution: Any, combine: Callable[[List[Any]], Any]) -> Any:
        """Deposit, receive all slots, combine locally.

        A combine failure surfaces exactly like the thread backend's
        leader-combine failure, naming this rank.
        """
        wired = self._round_trip("put", contribution, "slots")
        slots = [
            contribution if src == self.rank else self._arenas.unwire(name, payload)
            for src, (name, payload) in enumerate(wired)
        ]
        try:
            return combine(slots)
        except SpmdError:
            raise
        except BaseException as exc:  # noqa: BLE001 - attribute, then cascade
            raise SpmdError(
                f"collective combine failed on rank {self.rank}: {exc!r}",
                failed_rank=self.rank,
            ) from exc

    def _route(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Send each item to its destination; receive (and copy) only ours."""
        sent = {dest: item for dest, item in outbox.items() if dest != self.rank}
        wired = self._round_trip("route", sent, "inbox")
        inbox = {
            src: self._arenas.unwire(name, item) for src, (name, item) in wired.items()
        }
        if self.rank in outbox:
            inbox[self.rank] = outbox[self.rank]
        return dict(sorted(inbox.items()))


class _SanitizerProxy:
    """Worker-side stand-in for the parent's :class:`SanitizerState`."""

    def __init__(self, comm: ProcessComm) -> None:
        """Relay through ``comm``'s pipe."""
        self._comm = comm
        self.size = comm.size

    def check(self, rank: int, seq: int, sig: CallSignature) -> None:
        """Cross-validate against the parent table; re-raise mismatches."""
        reply = self._comm._request(("san", seq, sig), "san-reply")
        if reply[1] is not None:
            raise pickle.loads(reply[1])


class _WatchdogProxy:
    """Worker-side stand-in for the parent's :class:`HangWatchdog`.

    Heartbeats are fire-and-forget: pipe FIFO ordering guarantees the
    parent records the ``enter`` before it sees the ``put`` of the
    operation the heartbeat brackets, which is all diagnosis needs.  The
    worker's phase path travels with the ``enter`` (the monitor lives in
    the parent, where no phase is active).
    """

    def __init__(self, comm: ProcessComm) -> None:
        """Relay through ``comm``'s pipe."""
        self._comm = comm

    def comm_for(self, inner: Comm) -> WatchdogComm:
        """Wrap ``inner`` exactly like the real monitor does."""
        return WatchdogComm(inner, self)

    def enter(self, rank: int, op: str, detail: str) -> None:
        """Open this rank's heartbeat in the parent."""
        self._comm._send(("wd", "enter", op, detail, current_phase_path()))
        return None

    def exit(self, rank: int, record: Any) -> None:
        """Close this rank's heartbeat in the parent."""
        self._comm._send(("wd", "exit"))

    def finished(self, rank: int, errored: bool = False) -> None:
        """Mark this rank's program returned (or raised) in the parent."""
        self._comm._send(("wd", "fin", errored))


class _StoreProxy:
    """Worker-side stand-in for the parent's checkpoint store."""

    def __init__(self, comm: ProcessComm) -> None:
        """Relay through ``comm``'s pipe."""
        self._comm = comm

    def save(self, payload: Any) -> None:
        """Forward a checkpoint to the parent store (fire-and-forget)."""
        if payload is None:
            return
        self._comm._send(("save", payload))

    def load(self) -> Any:
        """Fetch the latest checkpoint from the parent store."""
        return self._comm._request(("load",), "loaded")[1]


#: One dispatched job: ``(fn, args, kwargs, layers, attempt, has_store,
#: epoch, tracing)``.  Travels as Process args for fresh spawns (so the
#: ``fork`` start method keeps supporting closure rank programs) and as a
#: pickled ``("job", spec)`` pipe message for reused pool workers.
_JobSpec = Tuple[
    Callable[..., Any], tuple, dict, tuple, int, bool, float, bool
]


def _run_job(
    conn: Any,
    rank: int,
    size: int,
    arenas: Arenas,
    spawn_gen: int,
    spec: _JobSpec,
) -> bool:
    """Run one dispatched rank program to its terminal report.

    Returns ``True`` only for a clean ``done``; an error, cascade, or
    dead pipe returns ``False`` so a persistent worker can announce
    itself ``idle`` (the router must not wait for its EOF — the process
    is staying alive for the next job).  Reports exactly one of ``done`` (value + metering + trace) or
    ``err`` (exception chain + the stats lost with it); a cascade from a
    received ``abort`` reports nothing — the parent already knows.

    A ``rollback`` (warm replacement of a dead peer) unwinds the program
    mid-flight via :class:`_RollbackSignal`: the worker acknowledges with
    its rolled-back stats, rebuilds a fresh communicator and layer stack
    with the attempt index advanced to ``attempt + generation`` (so
    attempt-keyed fault wrappers do not re-fire and all ranks — original
    or replacement — agree on one logical attempt number), and re-enters
    ``fn``, which resumes from the checkpoint store like any recovered
    attempt.  ``spawn_gen`` seeds the generation for replacement workers
    spawned mid-attempt.
    """
    fn, args, kwargs, layers, attempt, has_store, epoch, tracing = spec
    gen = spawn_gen
    while True:
        comm = ProcessComm(rank, size, conn, arenas)
        watchdog = (
            _WatchdogProxy(comm)
            if find_layer(layers, "watchdog") is not None
            else None
        )
        tracer = None
        if tracing:
            from repro.trace.tracer import Tracer

            tracer = Tracer(rank, epoch=epoch)
        ctx = LayerContext(
            rank=rank,
            size=size,
            attempt=attempt + gen,
            sanitizer_state=(
                _SanitizerProxy(comm)
                if find_layer(layers, "sanitize") is not None
                else None
            ),
            watchdog=watchdog,
            tracer=tracer,
        )
        facade = wrap_comm(comm, layers, ctx)
        fn_args = (_StoreProxy(comm),) + tuple(args) if has_store else tuple(args)
        comm._mark = time.thread_time()
        try:
            if tracer is not None:
                with tracer.activate():
                    value = fn(facade, *fn_args, **kwargs)
            else:
                value = fn(facade, *fn_args, **kwargs)
        except _RollbackSignal as rb:
            gen = rb.gen
            try:
                comm._send(("rb-ack", gen, comm.stats))
            except (OSError, BrokenPipeError):
                return False
            continue  # re-enter the program as rollback generation ``gen``
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            if not comm.saw_abort:
                try:
                    if watchdog is not None:
                        watchdog.finished(rank, errored=True)
                    comm._send(("err", _dump_exc_chain(exc), comm.stats))
                except (OSError, BrokenPipeError):
                    pass
            return False
        if watchdog is not None:
            watchdog.finished(rank)
        comm._begin()
        try:
            comm._send(
                (
                    "done",
                    value,
                    comm.stats,
                    comm.compute_seconds,
                    tracer.report() if tracer is not None else None,
                )
            )
        except (OSError, BrokenPipeError):
            return False  # parent tore the attempt down first
        return True


def _worker_main(
    conn: Any,
    rank: int,
    size: int,
    parent_pid: int,
    persistent: bool,
    spawn_gen: int,
    spec: _JobSpec,
) -> None:
    """Entry point of one worker process: run jobs until retired.

    Module-level (not a closure) so the ``spawn`` start method can import
    it.  A transient worker (``persistent=False``) runs exactly the job
    it was spawned with and exits.  A persistent (warm-pool) worker loops:
    after each job's terminal report it blocks on the pipe for the next
    ``("job", spec)`` dispatch, and retires on ``("quit",)``, on a closed
    pipe, or on any message it does not understand.  A job that ended in
    an error or cascade is followed by an ``("idle",)`` announcement, so
    the router can account for a parked worker it will never see EOF
    from.  A ``rollback`` that races with this worker's ``done`` (a peer
    died just as it finished) is honoured from the idle loop too: the
    worker acks the generation and re-enters its current program like
    any survivor.  The worker's shared-memory arenas live as long as the
    process; the parent unlinks them (by their ``parent_pid``-derived
    names) once the worker is gone.
    """
    arenas = Arenas(arena_prefix(parent_pid, os.getpid()))
    try:
        while True:
            clean = _run_job(conn, rank, size, arenas, spawn_gen, spec)
            if not persistent:
                return
            if not clean:
                # The router must learn we are parked (it will never see
                # an EOF from a worker that stays alive for the pool).
                try:
                    conn.send(("idle",))
                except (OSError, BrokenPipeError):
                    return
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    return
                if msg[0] == "job":
                    spawn_gen = 0
                    spec = msg[1]
                    break
                if msg[0] == "rollback":
                    # Raced with our "done": the router quarantined us as
                    # a survivor, so ack and re-enter the same program.
                    try:
                        conn.send(("rb-ack", msg[1], CommStats()))
                    except (OSError, BrokenPipeError):
                        return
                    spawn_gen = msg[1]
                    break
                return  # "quit", a late abort, or protocol confusion
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Router:
    """Parent-side event loop for one process-backend attempt."""

    def __init__(self, backend: "ProcessBackend", request: AttemptRequest) -> None:
        """Resolve the attempt's layers, monitor, and timeout."""
        self.backend = backend
        self.request = request
        self.size = request.size
        self.timeout = effective_timeout(request)
        wd_layer = find_layer(request.layers, "watchdog")
        self.watchdog = wd_layer.watchdog if wd_layer is not None else None
        self.san_state = (
            SanitizerState(self.size)
            if find_layer(request.layers, "sanitize") is not None
            else None
        )
        self.tracing = find_layer(request.layers, "trace") is not None
        # Round state
        self.round_idx = 0
        self.slots: List[Any] = [None] * self.size
        self.contributed: Set[int] = set()
        self.last_progress = time.perf_counter()
        # Outcome state
        self.outcomes: List[Optional[RankOutcome]] = [None] * self.size
        self.completed: Set[int] = set()
        self.idle: Set[int] = set()  # parked persistent workers (no EOF coming)
        self.failures: Dict[int, BaseException] = {}
        self.err_stats = CommStats()
        self.aborted = False
        self.abort_at = 0.0
        self.open_rec: Dict[int, Any] = {}
        self.alive: Dict[Any, int] = {}  # conn -> rank, removed on EOF
        # Warm-replacement state (active when request.max_replacements > 0).
        self.rollback_gen = 0  # how many in-place rollbacks this attempt took
        self.awaiting_ack: Set[int] = set()  # survivors yet to ack the rollback
        self.replacements = 0
        self.replaced_ranks: List[int] = []
        self.replacement_seconds = 0.0
        self.replacement_artifacts: List[str] = []
        self.replacement_failures: List[str] = []
        self.rollback_t0: Optional[float] = None
        self.proc_by_conn: Dict[Any, Any] = {}  # every pipe of the attempt
        self._ctx: Any = None
        self._epoch = 0.0
        self._spec: Optional[_JobSpec] = None
        self._sel = selectors.DefaultSelector()  # the live pipes, for run()

    # Failure bookkeeping (mirrors _Shared.abort) ---------------------------

    def record_failure(self, rank: int, exc: BaseException) -> None:
        """Record a primary failure; cascades never mask the first cause."""
        if not isinstance(exc, SpmdError) or not self.failures:
            self.failures.setdefault(rank, exc)

    @property
    def failed_rank(self) -> Optional[int]:
        """Lowest rank with a primary failure, or ``None``."""
        return min(self.failures) if self.failures else None

    def abort_all(self) -> None:
        """Tell every surviving worker the attempt is over."""
        if self.aborted:
            return
        self.aborted = True
        self.abort_at = time.perf_counter()
        failed = self.failed_rank
        exc = self.failures[failed] if failed is not None else None
        hang_msg = str(exc) if isinstance(exc, HangError) else None
        for conn, rank in list(self.alive.items()):
            if rank in self.completed:
                continue
            try:
                conn.send(("abort", failed, hang_msg))
            except (OSError, BrokenPipeError):
                pass

    # Message handling -------------------------------------------------------

    def dispatch(self, rank: int, conn: Any, msg: Tuple[Any, ...]) -> None:
        """Handle one worker message.

        During a rollback, everything a surviving worker sent *before*
        its ``rb-ack`` is provably stale (pipe FIFO: the ack is the first
        message of the new generation) and is dropped unanswered.
        """
        tag = msg[0]
        if tag == "idle":
            if rank not in self.awaiting_ack:
                self.idle.add(rank)
            return
        self.idle.discard(rank)
        if tag == "rb-ack":
            self.on_rb_ack(rank, msg[1], msg[2])
            return
        if rank in self.awaiting_ack:
            return  # pre-rollback traffic from a survivor; provably stale
        if tag in ("put", "route"):
            self.on_put(rank, msg)
        elif tag == "san":
            self.on_san(rank, conn, msg[1], msg[2])
        elif tag == "wd":
            self.on_wd(rank, msg)
        elif tag == "save":
            if self.request.store is not None:
                self.request.store.save(msg[1])
        elif tag == "load":
            payload = (
                self.request.store.load() if self.request.store is not None else None
            )
            try:
                conn.send(("loaded", payload))
            except (OSError, BrokenPipeError):
                pass
        elif tag == "done":
            self.outcomes[rank] = RankOutcome(msg[1], msg[2], msg[3], trace=msg[4])
            self.completed.add(rank)
        elif tag == "err":
            exc = _load_exc_chain(rank, msg[1])
            self.err_stats.merge(msg[2])
            self.record_failure(rank, exc)
            self.abort_all()
        else:
            self.record_failure(
                rank, RuntimeError(f"protocol error: unknown message {tag!r}")
            )
            self.abort_all()

    def on_put(self, rank: int, msg: Tuple[Any, ...]) -> None:
        """Deposit one contribution; deliver the round when complete.

        A ``put`` round broadcasts every ``(arena name, payload)`` slot to
        every rank; a ``route`` round sends each rank only the outbox
        items addressed to it, tagged with their sender's arena name.
        """
        tag, round_idx = msg[0], msg[1]
        if round_idx != self.round_idx:
            self.record_failure(
                rank,
                RuntimeError(
                    f"round skew: rank {rank} at {round_idx}, router at {self.round_idx}"
                ),
            )
            self.abort_all()
            return
        self.slots[rank] = msg
        self.contributed.add(rank)
        self.last_progress = time.perf_counter()
        if len(self.contributed) < self.size:
            return
        if any(slot[0] != tag for slot in self.slots):
            self.record_failure(
                rank, RuntimeError("collective mismatch: ranks mix put and route rounds")
            )
            self.abort_all()
            return
        body: Any = [(s[2], s[3]) for s in self.slots]
        blob = pickle.dumps(("slots", self.round_idx, body), pickle.HIGHEST_PROTOCOL)
        for conn, dest in self.alive.items():
            if tag == "route":
                body = {src: (s[2], s[3][dest]) for src, s in enumerate(self.slots) if dest in s[3]}
                blob = pickle.dumps(("inbox", self.round_idx, body), pickle.HIGHEST_PROTOCOL)
            try:
                conn.send_bytes(blob)
            except (OSError, BrokenPipeError):
                pass  # the dropped connection surfaces as EOF
        self.round_idx += 1
        self.slots = [None] * self.size
        self.contributed.clear()
        self.last_progress = time.perf_counter()

    def on_san(self, rank: int, conn: Any, seq: int, sig: CallSignature) -> None:
        """Cross-validate one call signature against the shared table."""
        assert self.san_state is not None
        blob = None
        try:
            self.san_state.check(rank, seq, sig)
        except Exception as exc:  # noqa: BLE001 - relayed, raised worker-side
            blob = pickle.dumps(exc)
        try:
            conn.send(("san-reply", blob))
        except (OSError, BrokenPipeError):
            pass

    def on_wd(self, rank: int, msg: Tuple[Any, ...]) -> None:
        """Apply one relayed heartbeat event to the parent monitor."""
        if self.watchdog is None:
            return
        kind = msg[1]
        if kind == "enter":
            self.open_rec[rank] = self.watchdog.enter(
                rank, msg[2], msg[3], phase=msg[4]
            )
        elif kind == "exit":
            rec = self.open_rec.pop(rank, None)
            if rec is not None:
                self.watchdog.exit(rank, rec)
        elif kind == "fin":
            self.watchdog.finished(rank, errored=msg[2])

    def on_death(self, rank: int) -> None:
        """A worker's pipe dropped: benign after completion/abort, else fatal.

        With replacement budget remaining the death triggers a warm
        replacement instead of an abort; an exhausted budget falls back
        to the classic abort (and, above, the shrink/retry loop).
        """
        if rank in self.completed or self.aborted:
            return
        cause = RuntimeError(
            f"worker process for rank {rank} died mid-run "
            "(connection lost; killed or crashed)"
        )
        if self.replacements < self.request.max_replacements:
            self.initiate_rollback(rank, cause)
            return
        self.record_failure(rank, cause)
        self.abort_all()

    # Warm replacement -------------------------------------------------------

    def initiate_rollback(self, dead_rank: int, cause: BaseException) -> None:
        """Respawn ``dead_rank`` in place and roll every survivor back.

        Survivors get a ``rollback`` message and are quarantined in
        ``awaiting_ack`` (their in-flight traffic is stale); round,
        sanitizer, and watchdog state is reset for the new generation;
        ranks that already completed are respawned too (their processes
        exited after ``done``).  The arenas of the dropped workers stay
        linked until every ack is in (:meth:`finish_rollback`) — a
        survivor may still be copying out of them.
        """
        now = time.perf_counter()
        self.rollback_gen += 1
        self.replacements += 1
        self.replaced_ranks.append(dead_rank)
        self.replacement_failures.append(
            f"rank {dead_rank}: {cause!r} "
            f"(replaced in place, rollback generation {self.rollback_gen})"
        )
        if self.rollback_t0 is None:
            self.rollback_t0 = now
        if self.watchdog is not None:
            # Dump the pre-reset heartbeat table: the replacement event's
            # own flight-recorder artifact.
            self.replacement_artifacts.append(
                self.watchdog.dump_replacement([dead_rank], self.rollback_gen)
            )
        respawn = {dead_rank} | set(self.completed)
        for conn, rank in list(self.alive.items()):
            if rank in respawn:
                # Completed ranks' processes exited after "done"; drop the
                # stale pipe so their EOF can never be misattributed.
                self._drop(conn)
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            try:
                conn.send(("rollback", self.rollback_gen))
                self.awaiting_ack.add(rank)
            except (OSError, BrokenPipeError):
                self._drop(conn)
                self.awaiting_ack.discard(rank)
                respawn.add(rank)  # also dead; fold into this rollback
                self.replaced_ranks.append(rank)
        # Fresh generation: reset round, outcome, and observability state.
        self.round_idx = 0
        self.slots = [None] * self.size
        self.contributed.clear()
        self.completed.clear()
        self.outcomes = [None] * self.size
        self.open_rec.clear()
        if self.san_state is not None:
            self.san_state = SanitizerState(self.size)
        if self.watchdog is not None:
            self.watchdog.attach(self.size)
        self.last_progress = time.perf_counter()
        for rank in sorted(respawn):
            if not self._respawn(rank):
                return
        if not self.awaiting_ack:
            self.finish_rollback()

    def on_rb_ack(self, rank: int, gen: int, stats: CommStats) -> None:
        """Consume one survivor's rollback acknowledgement.

        ``gen`` is the survivor's rollback count; an ack from an earlier
        generation (nested rollbacks) keeps the rank quarantined until
        its count catches up with the router's.
        """
        self.err_stats.merge(stats)  # the rolled-back traffic is lost work
        if gen != self.rollback_gen:
            return
        self.awaiting_ack.discard(rank)
        self.last_progress = time.perf_counter()
        if not self.awaiting_ack:
            self.finish_rollback()

    def finish_rollback(self) -> None:
        """All survivors acked: sweep dropped workers' arenas, stop the clock.

        Every survivor's ack follows its last copy-out (pipe order), so
        no one reads a dropped worker's arenas any more.
        """
        dropped = [p for c, p in self.proc_by_conn.items() if c not in self.alive]
        sweep([arena_prefix(os.getpid(), proc.pid) for proc in dropped])
        if self.rollback_t0 is not None:
            self.replacement_seconds += time.perf_counter() - self.rollback_t0
            self.rollback_t0 = None

    def _respawn(self, rank: int) -> bool:
        """Spawn a replacement worker, retrying transient failures with backoff.

        Persistent spawn failure records the failure and aborts the
        attempt — the recovery loop above then falls back to shrink/retry.
        """
        delay = 0.05
        last: Optional[BaseException] = None
        for _ in range(3):
            try:
                self._spawn(rank)
                return True
            except OSError as exc:
                last = exc
                time.sleep(delay)
                delay *= 2
        self.record_failure(
            rank,
            RuntimeError(
                f"failed to respawn a replacement worker for rank {rank}: {last!r}"
            ),
        )
        self.abort_all()
        return False

    def check_hang(self) -> None:
        """Detect a stalled round and attribute it like the thread backend."""
        if (
            self.aborted
            or self.timeout is None
            or not (self.contributed or self.awaiting_ack)
            or time.perf_counter() - self.last_progress <= self.timeout
        ):
            return
        if self.awaiting_ack:
            rank = min(self.awaiting_ack)
            self.record_failure(
                rank,
                HangError(
                    f"rank {rank} never acknowledged the in-place rollback "
                    f"within {self.timeout}s",
                    rank=rank,
                ),
            )
            self.abort_all()
            return
        if self.watchdog is not None:
            reporter = min(self.contributed)
            err_rank, error = self.watchdog.timeout_fault(reporter)
        else:
            absent = set(range(self.size)) - self.contributed - self.completed
            err_rank = min(absent) if absent else min(self.contributed)
            error = HangError(
                f"collective timed out after {self.timeout}s "
                f"(rank {err_rank} never arrived; attach a HangWatchdog for "
                "a per-rank diagnosis)",
                rank=err_rank,
            )
        self.record_failure(err_rank, error)
        self.abort_all()

    # Main loop --------------------------------------------------------------

    def _spawn(self, rank: int) -> None:
        """Start one worker process for ``rank`` and register its pipe.

        Replacement workers are seeded with the current rollback
        generation, so their logical attempt index matches the
        survivors' — the whole machine agrees on one attempt number.
        """
        assert self._spec is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                rank,
                self.size,
                os.getpid(),
                self.backend.persistent,
                self.rollback_gen,
                self._spec,
            ),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._adopt(rank, parent_conn, proc)

    def _adopt(self, rank: int, conn: Any, proc: Any) -> None:
        """Route ``rank``'s traffic through ``conn`` (its worker is ``proc``)."""
        self.alive[conn] = rank
        self._sel.register(conn, selectors.EVENT_READ)
        self.proc_by_conn[conn] = proc

    def _drop(self, conn: Any) -> None:
        """Stop listening to ``conn`` (EOF, rollback drop); call before closing."""
        del self.alive[conn]
        self._sel.unregister(conn)


    def _job_spec(self) -> _JobSpec:
        """Freeze this attempt's job for dispatch (spawn args or pipe)."""
        req = self.request
        return (
            req.fn,
            tuple(req.args),
            dict(req.kwargs),
            tuple(req.layers),
            req.attempt,
            req.store is not None,
            self._epoch,
            self.tracing,
        )

    def _adopt_pool(self) -> bool:
        """Dispatch this attempt's job to the backend's warm pool.

        Returns ``True`` when every pooled worker accepted the job.  Any
        disqualification — no pool, wrong size, a worker died idle, or a
        job that does not pickle (closure rank programs under ``fork``)
        — retires the pool and reports ``False`` so the caller falls
        back to a cold start.
        """
        entries = self.backend._take_pool(self.size)
        if entries is None:
            return False
        try:
            blob = pickle.dumps(("job", self._spec), pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable job: cold-start instead
            self.backend._retire(entries)
            return False
        if any(not proc.is_alive() for _, _, proc in entries):
            self.backend._retire(entries)
            return False
        for _, conn, _ in entries:
            try:
                conn.send_bytes(blob)
            except (OSError, BrokenPipeError, ValueError):
                # Workers that already got the job will fail their first
                # send once the pool's pipes close, and exit.
                self.backend._retire(entries)
                return False
        for rank, conn, proc in entries:
            self._adopt(rank, conn, proc)
        return True

    def _pool_workers(self) -> Set[int]:
        """Park this attempt's workers as the backend's warm pool.

        Only a fully clean attempt qualifies: every rank completed, no
        failure, abort, or unacknowledged rollback, and all ``size``
        pipes (original or replacement workers) still open with live
        processes behind them.  Returns the ``id()``s of the pooled
        connections and processes so teardown skips them; empty when the
        attempt does not qualify (teardown then proceeds as usual).
        """
        if (
            not self.backend.persistent
            or self.failures
            or self.aborted
            or self.awaiting_ack
            or len(self.completed) != self.size
            or len(self.alive) != self.size
        ):
            return set()
        entries = sorted(
            ((rank, conn, self.proc_by_conn[conn]) for conn, rank in self.alive.items()),
            key=lambda entry: entry[0],
        )
        if any(not proc.is_alive() for _, _, proc in entries):
            return set()
        self.backend._store_pool(self.size, entries)
        return {id(conn) for _, conn, _ in entries} | {id(p) for _, _, p in entries}

    def run(self) -> AttemptResult:
        """Launch or reuse the workers, route until resolved, account."""
        self._ctx = multiprocessing.get_context(self.backend.start_method)
        if self.watchdog is not None:
            self.watchdog.attach(self.size)
        # Epoch is valid across processes: CLOCK_MONOTONIC.
        self._epoch = time.perf_counter()
        t0 = time.perf_counter()
        self._spec = self._job_spec()
        if not (self.backend.persistent and self._adopt_pool()):
            for rank in range(self.size):
                self._spawn(rank)

        grace = (self.timeout + 1.0) if self.timeout is not None else 5.0
        while self.alive and len(self.completed) < self.size:
            ready = [key.fileobj for key, _ in self._sel.select(timeout=0.05)]
            if not ready:
                self.check_hang()
                if self.aborted and time.perf_counter() - self.abort_at > grace:
                    break  # stragglers wedged outside comm; killed below
                continue
            for conn in ready:
                rank = self.alive.get(conn)
                if rank is None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._drop(conn)
                    self.on_death(rank)
                    continue
                self.dispatch(rank, conn, msg)
            if self.aborted and not (
                set(self.alive.values()) - self.completed - self.idle
            ):
                break  # every survivor is parked; no EOFs are coming

        self._sel.close()
        pooled = self._pool_workers()
        if self.backend.persistent and not pooled:
            # Persistent workers idle in their job loop after an abort or
            # error; wake them so the joins below do not eat the grace.
            for conn, rank in list(self.alive.items()):
                try:
                    conn.send(("quit",))
                except (OSError, BrokenPipeError):
                    pass
            for conn in self.proc_by_conn:
                try:
                    conn.close()
                except OSError:
                    pass
        # Every worker not parked in the pool is gone after this, and so
        # are its arenas (including any it created after its last message).
        _reap([p for p in self.proc_by_conn.values() if id(p) not in pooled], grace)
        wall_seconds = time.perf_counter() - t0
        if self.rollback_t0 is not None:
            # A rollback was still in flight when the attempt resolved.
            self.replacement_seconds += time.perf_counter() - self.rollback_t0
            self.rollback_t0 = None
        for conn in self.proc_by_conn:
            if id(conn) in pooled:
                continue
            try:
                conn.close()
            except OSError:
                pass

        failed_rank = self.failed_rank
        artifact: Optional[str] = None
        lost = CommStats()
        if failed_rank is not None:
            if self.watchdog is not None:
                artifact = self.watchdog.dump_for_failure("spmd-error")
            lost.merge(self.err_stats)
            for outcome in self.outcomes:
                if outcome is not None:
                    lost.merge(outcome.stats)
        elif self.replacements:
            # The attempt succeeded, but the rolled-back generations'
            # traffic (reported with each rb-ack) was still thrown away.
            lost.merge(self.err_stats)
        return AttemptResult(
            self.outcomes,
            wall_seconds,
            failed_rank=failed_rank,
            failure=self.failures.get(failed_rank) if failed_rank is not None else None,
            artifact=artifact,
            lost_stats=lost,
            replacements=self.replacements,
            replaced_ranks=list(self.replaced_ranks),
            replacement_seconds=self.replacement_seconds,
            replacement_artifacts=list(self.replacement_artifacts),
            replacement_failures=list(self.replacement_failures),
        )


def _reap(procs: List[Any], grace: float) -> None:
    """Join ``procs`` within ``grace`` seconds, kill stragglers, unlink their arenas."""
    deadline = time.perf_counter() + grace
    for proc in procs:
        proc.join(max(0.0, deadline - time.perf_counter()))
    for proc in procs:
        for stop in (proc.terminate, proc.kill):
            if proc.is_alive():
                stop()
                proc.join(1.0)
    sweep([arena_prefix(os.getpid(), proc.pid) for proc in procs])


#: One warm-pool member: ``(rank, parent_conn, process)``.
_PoolEntry = Tuple[int, Any, Any]


class ProcessBackend(Backend):
    """One worker process per rank; true parallel compute.

    ``start_method`` selects the :mod:`multiprocessing` start method
    (``"spawn"`` is the portable default; ``"fork"`` launches much
    faster where available).  Rank programs and their arguments must be picklable (module-level
    functions; under ``fork`` this is not enforced by the OS but keeps
    runs portable across start methods).

    ``persistent=True`` turns on the warm pool: a fully successful
    attempt parks its worker processes instead of joining them, and the
    next same-size attempt re-dispatches its job to them over the pipes
    — no fork/spawn, no interpreter start, no module re-import.  A
    failed attempt, a size change, or an unpicklable job retires the
    pool and cold-starts; :meth:`close` retires it explicitly.  Attempts
    on one backend must not run concurrently (give each thread its own
    backend); the pool holds at most one generation of workers.
    """

    name = "process"

    def __init__(
        self,
        start_method: str = "spawn",
        persistent: bool = False,
    ) -> None:
        """Validate and record the backend options."""
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not available on this platform "
                f"(have {multiprocessing.get_all_start_methods()})"
            )
        self.start_method = start_method
        self.persistent = persistent
        self._pool: Optional[Tuple[int, List[_PoolEntry]]] = None

    # Warm-pool custody (router-facing) --------------------------------------

    def _take_pool(self, size: int) -> Optional[List[_PoolEntry]]:
        """Hand the parked workers to a starting attempt (or ``None``).

        A size mismatch retires the pool on the spot: the next forest
        needs a different machine shape, so the old workers are useless.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return None
        pool_size, entries = pool
        if pool_size != size:
            self._retire(entries)
            return None
        return entries

    def _store_pool(self, size: int, entries: List[_PoolEntry]) -> None:
        """Park a finished attempt's workers for the next same-size job."""
        if self._pool is not None:  # pragma: no cover - attempts never overlap
            self._retire(entries)
            return
        self._pool = (size, entries)

    @staticmethod
    def _retire(entries: List[_PoolEntry]) -> None:
        """Quit, close, and reap one generation of pooled workers; unlink their arenas."""
        for _, conn, _ in entries:
            try:
                conn.send(("quit",))
            except (OSError, BrokenPipeError):
                pass
        for _, conn, _ in entries:
            try:
                conn.close()
            except OSError:
                pass
        _reap([proc for _, _, proc in entries], 1.0)

    def close(self) -> None:
        """Retire the warm pool (idempotent; no-op when not persistent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self._retire(pool[1])

    def pool_size(self) -> int:
        """How many workers are parked warm right now (introspection)."""
        return len(self._pool[1]) if self._pool is not None else 0

    def run_attempt(self, request: AttemptRequest) -> AttemptResult:
        """Execute one attempt, reusing the warm pool when possible."""
        return _Router(self, request).run()
