"""The :class:`ForestService`: many tenant sessions on one warm machine.

The paper's machinery runs one forest per ``Machine.run``.  The service
turns that into a serving stack shaped like the ForestClaw workload —
many small independent forests — multiplexed over warm worker pools,
with the robustness contract a shared service needs:

* **Admission control.**  A bounded queue; a full queue sheds the
  request synchronously with a typed
  :class:`~repro.service.errors.ServiceOverloadError` — overload fails
  fast, it never hangs or queues unboundedly.
* **Deadlines.**  Each session carries a wall-clock budget.  The
  remaining budget bounds every attempt's collective waits (riding
  ``RunConfig.timeout``), so a straggler or hang surfaces as a typed,
  rank-attributed error and the session expires with a
  :class:`~repro.service.errors.DeadlineExceededError` carrying the
  watchdog's flight-recorder artifact.
* **Retries.**  Failed attempts are retried with seeded exponential
  backoff + jitter, bounded by the deadline.  Recovering sessions
  restore from their (tenant-namespaced) checkpoint store, riding the
  same checkpoint/replacement path as batch runs;
  ``RunConfig.attempt_offset`` advances the layer attempt index across
  service-level retries so attempt-keyed fault injection does not
  re-fire.
* **Fault isolation.**  Each executor thread owns a private backend
  (its own worker pool).  A tenant session that crashes, corrupts, or
  SIGKILLs its workers takes down only that pool, which is rebuilt for
  the next session; concurrent sessions on other executors are
  untouched (the service fault campaign asserts their results stay
  bit-identical to fault-free goldens).
* **Graceful degradation.**  Repeated failures trip the tenant's
  :class:`~repro.service.breaker.CircuitBreaker`: its sessions then run
  at a reduced rank share for a cooldown instead of being rejected,
  then probe back to full share.
* **Introspection.**  :meth:`ForestService.status` snapshots queue
  depth, per-tenant counters (shed/retries/expired/breaker state), and
  session states; executor-side :class:`~repro.trace.tracer.Tracer`
  spans (``tenant:<name>`` / ``attempt`` / ``backoff``) are exposed via
  :meth:`ForestService.trace_reports`.

See ``docs/SERVICE.md`` for the full API and guarantees.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.parallel.backend import Backend, get_backend
from repro.parallel.layers import CommLayer, Watchdog, find_layer
from repro.parallel.run import CheckpointStore, Machine, RunConfig
from repro.service.breaker import CircuitBreaker
from repro.service.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
    SessionCancelledError,
    SessionNotFoundError,
)
from repro.service.session import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    Session,
    make_session_id,
    session_layers,
)
from repro.trace.tracer import Tracer, phase


@dataclass
class ServiceConfig:
    """Declarative description of one :class:`ForestService`.

    ``ranks`` is the per-session rank share at full health (every
    session is an independent SPMD run of this size); ``workers`` is the
    executor count — the service's concurrency *and* its fault-domain
    count, since each executor owns a private backend/worker pool.
    ``max_queue`` bounds admission; ``default_deadline`` (seconds,
    ``None`` = unbounded) applies to sessions submitted without one.
    ``session_retries`` extra attempts ride seeded exponential backoff
    (``backoff_base``/``backoff_cap``/``backoff_jitter``/``backoff_seed``).
    ``breaker_threshold`` consecutive failures open a tenant's breaker
    for ``breaker_cooldown`` seconds, during which its sessions run at
    ``degraded_ranks``.  ``store_root`` enables tenant-namespaced
    durable checkpoints for recovering sessions.  The remaining fields
    mirror :class:`~repro.parallel.run.RunConfig`.
    """

    ranks: int = 2
    backend: str = "thread"
    workers: int = 2
    max_queue: int = 64
    default_deadline: Optional[float] = 30.0
    session_retries: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 0
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    degraded_ranks: int = 1
    timeout: Optional[float] = None
    max_replacements: int = 0
    layers: Sequence[CommLayer] = ()
    store_root: Optional[str] = None
    start_method: str = "spawn"
    warm_pool: bool = True

    def __post_init__(self) -> None:
        """Validate the shape of the service."""
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.session_retries < 0:
            raise ValueError("session_retries must be >= 0")
        if not 1 <= self.degraded_ranks <= self.ranks:
            raise ValueError("degraded_ranks must be in [1, ranks]")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff parameters must be >= 0")


class _Executor:
    """One executor thread's private machinery: backend + tracer."""

    def __init__(self, index: int, config: ServiceConfig, epoch: float) -> None:
        """Build the executor's own backend (its isolated worker pool)."""
        self.index = index
        if config.backend == "process":
            self.backend: Backend = get_backend(
                "process",
                start_method=config.start_method,
                persistent=config.warm_pool,
            )
        else:
            self.backend = get_backend(config.backend)
        self.tracer = Tracer(rank=index, epoch=epoch)
        self.busy = False  # guards trace_reports() against open spans


def _attribution(exc: BaseException) -> Tuple[Optional[int], Optional[str]]:
    """Extract (failed_rank, flight-recorder artifact) from a cause chain."""
    failed_rank: Optional[int] = None
    artifact: Optional[str] = None
    cur: Optional[BaseException] = exc
    seen: Set[int] = set()
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        if failed_rank is None:
            rank = getattr(cur, "failed_rank", None)
            if rank is None:
                rank = getattr(cur, "rank", None)
            if isinstance(rank, int):
                failed_rank = rank
        if artifact is None:
            art = getattr(cur, "artifact", None)
            if isinstance(art, str):
                artifact = art
        cur = cur.__cause__
    return failed_rank, artifact


def _tenant_counters() -> Dict[str, int]:
    """Zeroed per-tenant accounting row."""
    return {
        "submitted": 0,
        "completed": 0,
        "failed": 0,
        "expired": 0,
        "cancelled": 0,
        "shed": 0,
        "retries": 0,
        "degraded_runs": 0,
    }


class ForestService:
    """Fault-isolated multi-tenant session layer over warm machine pools.

    Lifecycle: construct, :meth:`submit` sessions, read them back with
    :meth:`poll` / :meth:`result`, and :meth:`close` (or use a ``with``
    block) to drain and retire the worker pools.  All methods are
    thread-safe; ``submit`` never blocks (it sheds instead).
    """

    def __init__(self, config: ServiceConfig) -> None:
        """Start the executor threads (workers pools spin up lazily)."""
        self.config = config
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._queue: "queue.Queue[Optional[Session]]" = queue.Queue(
            maxsize=config.max_queue
        )
        self._seq = 0
        self._closed = False
        self._epoch = time.perf_counter()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._tenants: Dict[str, Dict[str, int]] = {}
        self._executors = [
            _Executor(i, config, self._epoch) for i in range(config.workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(ex,),
                name=f"forest-service-{i}",
                daemon=True,
            )
            for i, ex in enumerate(self._executors)
        ]
        for t in self._threads:
            t.start()

    # Admission --------------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        tenant: str = "default",
        deadline: Optional[float] = ...,  # type: ignore[assignment]
        retries: Optional[int] = None,
        recover: bool = False,
        store: Optional[CheckpointStore] = None,
        layers: Sequence[CommLayer] = (),
        **kwargs: Any,
    ) -> str:
        """Admit one session; returns its id or sheds synchronously.

        ``deadline`` (seconds from now; ``None`` = unbounded) defaults to
        the service's ``default_deadline``.  ``recover=True`` runs the
        session with the checkpoint stack — ``fn`` then receives the
        store after the comm, namespaced per tenant/session when the
        service has a ``store_root`` and no explicit ``store`` is given.
        ``layers`` are composed on top of the service's base layers for
        this session only (the fault-campaign injection point).
        """
        if self._closed:
            raise ServiceClosedError("service is closed to new sessions")
        if deadline is ...:
            deadline = self.config.default_deadline
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        with self._lock:
            self._seq += 1
            sid = make_session_id(self._seq)
            counters = self._tenants.setdefault(tenant, _tenant_counters())
            counters["submitted"] += 1
        if recover and store is None and self.config.store_root is not None:
            from repro.io.store import DiskCheckpointStore

            store = DiskCheckpointStore(
                self.config.store_root, namespace=f"{tenant}/{sid}"
            )
        session = Session(
            session_id=sid,
            tenant=tenant,
            fn=fn,
            args=tuple(args),
            kwargs=dict(kwargs),
            deadline=deadline,
            retries=self.config.session_retries if retries is None else retries,
            recover=recover,
            store=store,
            layers=tuple(layers),
        )
        with self._lock:
            self._sessions[sid] = session
        try:
            self._queue.put_nowait(session)
        except queue.Full:
            with self._lock:
                del self._sessions[sid]
                self._tenants[tenant]["shed"] += 1
            raise ServiceOverloadError(
                f"queue full ({self.config.max_queue}); session shed",
                queue_depth=self._queue.qsize(),
                max_queue=self.config.max_queue,
            ) from None
        return session.session_id

    # Readback ---------------------------------------------------------------

    def _session(self, session_id: str) -> Session:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise SessionNotFoundError(session_id) from None

    def poll(self, session_id: str) -> str:
        """The session's current lifecycle state (non-blocking)."""
        return self._session(session_id).state

    def result(self, session_id: str, timeout: Optional[float] = None) -> Any:
        """Block for the session's terminal state; return its RunResult.

        Raises the session's typed error if it did not complete:
        the machine's ``SpmdError`` (rank-attributed, cause chained),
        :class:`DeadlineExceededError`, or
        :class:`SessionCancelledError`.  Raises :class:`TimeoutError`
        if the session is still live after ``timeout`` seconds.
        """
        session = self._session(session_id)
        if not session.finished.wait(timeout):
            raise TimeoutError(
                f"session {session_id} still {session.state} after {timeout}s"
            )
        if session.state == DONE:
            return session.result
        assert session.error is not None
        raise session.error

    def snapshot(self, session_id: str) -> Dict[str, Any]:
        """One session's status row (state, attempts, remaining budget)."""
        return self._session(session_id).snapshot()

    def cancel(self, session_id: str) -> bool:
        """Request cancellation; returns whether the session will stop.

        A queued session is cancelled immediately; a running one stops
        before its next retry (the in-flight attempt is not interrupted).
        Terminal sessions return ``False``.
        """
        session = self._session(session_id)
        with self._lock:
            if session.terminal:
                return False
            session.cancel_requested = True
            if session.state == QUEUED:
                self._finish(session, CANCELLED,
                             error=SessionCancelledError(
                                 f"session {session_id} cancelled while queued"))
        return True

    # Execution --------------------------------------------------------------

    def _breaker(self, tenant: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(tenant)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.config.breaker_threshold, self.config.breaker_cooldown
                )
                self._breakers[tenant] = breaker
            return breaker

    def _finish(self, session: Session, state: str, *, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        """Terminalize ``session`` and bump its tenant's counters."""
        session.finish(state, result=result, error=error)
        counters = self._tenants.setdefault(session.tenant, _tenant_counters())
        key = {DONE: "completed", FAILED: "failed",
               EXPIRED: "expired", CANCELLED: "cancelled"}[state]
        counters[key] += 1

    def _worker_loop(self, executor: _Executor) -> None:
        """One executor thread: pop sessions until the shutdown sentinel."""
        while True:
            session = self._queue.get()
            if session is None:
                self._queue.task_done()
                return
            try:
                if session.state == QUEUED:  # not cancelled while queued
                    self._run_session(executor, session)
            finally:
                self._queue.task_done()

    def _backoff_delay(self, session: Session, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter."""
        cfg = self.config
        delay = min(cfg.backoff_cap, cfg.backoff_base * (2.0 ** attempt))
        rng = random.Random(
            f"{cfg.backoff_seed}:{session.session_id}:{attempt}"
        )
        return delay * (1.0 + cfg.backoff_jitter * rng.random())

    def _expire(self, session: Session, cause: Optional[BaseException]) -> None:
        """Terminalize a session whose deadline ran out."""
        failed_rank: Optional[int] = None
        artifact: Optional[str] = None
        if cause is not None:
            failed_rank, artifact = _attribution(cause)
        assert session.deadline is not None
        error = DeadlineExceededError(
            f"session {session.session_id} (tenant {session.tenant!r}) exceeded "
            f"its {session.deadline}s deadline after {session.attempts} attempt(s)",
            tenant=session.tenant,
            session_id=session.session_id,
            deadline=session.deadline,
            failed_rank=failed_rank,
            artifact=artifact,
        )
        if cause is not None:
            error.__cause__ = cause
        with self._lock:
            self._finish(session, EXPIRED, error=error)

    def _run_session(self, executor: _Executor, session: Session) -> None:
        """Drive one session to a terminal state on this executor."""
        breaker = self._breaker(session.tenant)
        session.started_at = time.monotonic()
        executor.busy = True
        try:
            with executor.tracer.activate(), phase(f"tenant:{session.tenant}"):
                self._attempt_loop(executor, session, breaker)
        finally:
            executor.busy = False

    def _attempt_loop(self, executor: _Executor, session: Session,
                      breaker: CircuitBreaker) -> None:
        """Attempt / expire / backoff-retry until the session terminalizes."""
        cfg = self.config
        last_error: Optional[BaseException] = None
        while True:
            if session.cancel_requested:
                with self._lock:
                    self._finish(session, CANCELLED,
                                 error=SessionCancelledError(
                                     f"session {session.session_id} cancelled"))
                return
            remaining = session.remaining()
            if remaining is not None and remaining <= 0:
                self._expire(session, last_error)
                return
            ranks = breaker.rank_share(cfg.ranks, cfg.degraded_ranks)
            if ranks != cfg.ranks:
                with self._lock:
                    self._tenants[session.tenant]["degraded_runs"] += 1
            timeout = cfg.timeout
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
            layers = session_layers(cfg.layers, session.layers)
            if timeout is not None and find_layer(layers, "watchdog") is None:
                # Arm a per-rank hang diagnosis so a blown deadline names
                # the straggler and dumps a flight-recorder artifact.
                layers = layers + (Watchdog(timeout=timeout),)
            run_config = RunConfig(
                size=ranks,
                backend=cfg.backend,
                layers=layers,
                timeout=timeout,
                recover=session.recover,
                max_retries=0,  # the service owns retries (with backoff)
                store=session.store,
                max_replacements=cfg.max_replacements,
                start_method=cfg.start_method,
                attempt_offset=session.attempts,
            )
            session.state = RUNNING
            attempt_index = session.attempts
            session.attempts += 1
            machine = Machine(run_config, backend=executor.backend)
            try:
                with phase("attempt"):
                    result = machine.run(
                        session.fn, *session.args, **session.kwargs
                    )
            except Exception as exc:  # noqa: BLE001 - typed below, never silent
                last_error = exc
                breaker.record_failure()
                remaining = session.remaining()
                if remaining is not None and remaining <= 0:
                    self._expire(session, exc)
                    return
                if attempt_index >= session.retries or session.cancel_requested:
                    if session.cancel_requested:
                        with self._lock:
                            self._finish(
                                session, CANCELLED,
                                error=SessionCancelledError(
                                    f"session {session.session_id} cancelled"
                                ),
                            )
                    else:
                        with self._lock:
                            self._finish(session, FAILED, error=exc)
                    return
                session.state = RETRYING
                with self._lock:
                    self._tenants[session.tenant]["retries"] += 1
                delay = self._backoff_delay(session, attempt_index)
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining - 1e-3))
                with phase("backoff"):
                    time.sleep(delay)
                continue
            breaker.record_success()
            with self._lock:
                self._finish(session, DONE, result=result)
            return

    # Introspection ----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """One consistent snapshot of queue, sessions, tenants, breakers."""
        with self._lock:
            states: Dict[str, int] = {}
            for session in self._sessions.values():
                states[session.state] = states.get(session.state, 0) + 1
            tenants: Dict[str, Dict[str, Any]] = {}
            for tenant, counters in self._tenants.items():
                row: Dict[str, Any] = dict(counters)
                breaker = self._breakers.get(tenant)
                row["breaker"] = breaker.state if breaker is not None else "closed"
                row["breaker_trips"] = breaker.trips if breaker is not None else 0
                tenants[tenant] = row
            return {
                "closed": self._closed,
                "workers": self.config.workers,
                "queue_depth": self._queue.qsize(),
                "max_queue": self.config.max_queue,
                "sessions": states,
                "tenants": tenants,
            }

    def trace_reports(self) -> List[Any]:
        """Per-executor trace reports (busy executors are skipped)."""
        reports: List[Any] = []
        for ex in self._executors:
            if ex.busy:
                continue
            try:
                reports.append(ex.tracer.report())
            except RuntimeError:  # pragma: no cover - raced a starting span
                continue
        return reports

    # Lifecycle --------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admissions, finish (or cancel) queued work, retire pools."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for session in self._sessions.values():
                    if session.state == QUEUED:
                        session.cancel_requested = True
                        self._finish(
                            session, CANCELLED,
                            error=SessionCancelledError(
                                f"session {session.session_id} cancelled at close"
                            ),
                        )
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join()
        for ex in self._executors:
            ex.backend.close()

    def __enter__(self) -> "ForestService":
        """Enter a ``with`` block owning the service lifecycle."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Drain and close on scope exit."""
        self.close()
