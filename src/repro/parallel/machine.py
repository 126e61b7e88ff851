"""The thread execution backend.

:class:`ThreadBackend` runs one thread per rank, each executing the same
``fn(comm, *args)`` against its own :class:`ThreadComm`.  Collectives are
implemented with a shared two-phase barrier protocol: every rank deposits
its contribution, the barrier's leader combines, a second barrier releases
the results.  The protocol is deterministic (results never depend on
thread scheduling) and exception-safe: a raising rank aborts the barrier,
unblocking all peers, and the original exception is re-raised from the
driver.

All argument validation and :class:`~repro.parallel.stats.CommStats`
metering live in the shared :class:`~repro.parallel.comm.MeteredComm`
frontend, so accounting is byte-exact with the process backend of
:mod:`repro.parallel.process_backend`.  Threads share one address space
and the GIL: communication is cheap but compute never overlaps, which is
exactly what the process backend exists to fix (see ``docs/BACKENDS.md``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.parallel.backend import (
    AttemptRequest,
    AttemptResult,
    Backend,
    RankOutcome,
    SpmdError,
    effective_timeout,
)
from repro.parallel.comm import MeteredComm
from repro.parallel.layers import LayerContext, find_layer, wrap_comm
from repro.parallel.sanitizer import SanitizerState
from repro.parallel.stats import CommStats
from repro.parallel.watchdog import HangError, HangWatchdog


class _Shared:
    """State shared by the rank threads of one SPMD attempt.

    ``timeout`` arms every barrier wait: a wait that expires breaks the
    protocol for all ranks and the failure is attributed (via the
    ``watchdog``'s heartbeat diagnosis when one is attached) instead of
    wedging the run.  ``None`` (the default) waits indefinitely, which is
    byte-identical to the pre-watchdog behavior.
    """

    def __init__(
        self,
        size: int,
        timeout: Optional[float] = None,
        watchdog: Optional[HangWatchdog] = None,
    ) -> None:
        """Set up the barrier, slot array, and failure table for ``size`` ranks."""
        self.size = size
        self.timeout = timeout
        self.watchdog = watchdog
        self.barrier = threading.Barrier(size)
        self.slots: List[Any] = [None] * size
        self.result: Any = None
        self._lock = threading.Lock()
        self.failures: Dict[int, BaseException] = {}

    def abort(self, rank: int, exc: BaseException) -> None:
        """Record a rank failure and break the barrier protocol.

        Primary failures (anything but a cascaded :class:`SpmdError`) are
        collected per rank; :attr:`failed_rank` reports the *lowest* such
        rank so concurrent aborts resolve deterministically regardless of
        thread scheduling.  Cascaded :class:`SpmdError` reactions from
        peers unblocked by a broken barrier never mask the true cause.
        """
        with self._lock:
            if not isinstance(exc, SpmdError) or not self.failures:
                self.failures.setdefault(rank, exc)
        self.barrier.abort()

    @property
    def failed_rank(self) -> Optional[int]:
        """Lowest rank with a primary failure on record, or ``None``."""
        with self._lock:
            return min(self.failures) if self.failures else None

    @property
    def failure(self) -> Optional[BaseException]:
        """The primary failure of :attr:`failed_rank`, or ``None``."""
        with self._lock:
            return self.failures[min(self.failures)] if self.failures else None


class ThreadComm(MeteredComm):
    """Communicator handle for one rank of a thread-backed SPMD run."""

    def __init__(self, rank: int, shared: _Shared) -> None:
        """Bind rank ``rank`` to the attempt's shared barrier state."""
        super().__init__(rank, shared.size)
        self._shared = shared

    def _wait(self) -> int:
        """One barrier round, armed with the run's consistent timeout.

        Every blocking path of the machine funnels through this wait, so
        a single ``timeout`` bounds them all.  On a broken barrier with no
        rank failure on record the wait itself expired: the watchdog (if
        attached) diagnoses the heartbeat table, names the offending
        rank, and dumps the flight recorder before the failure is
        recorded, so the resulting :class:`SpmdError` carries an
        attributable ``failed_rank`` instead of a bare abort.
        """
        shared = self._shared
        try:
            return shared.barrier.wait(shared.timeout)
        except threading.BrokenBarrierError:
            if shared.failed_rank is None:
                # No failure recorded: the wait timed out (only possible
                # with a timeout armed).  Attribute the hang.
                if shared.watchdog is not None:
                    shared.watchdog.on_timeout(self.rank, shared)
                else:
                    shared.abort(
                        self.rank,
                        HangError(
                            f"collective timed out after {shared.timeout}s "
                            "(attach a HangWatchdog for a per-rank diagnosis)",
                        ),
                    )
            failed = shared.failed_rank
            exc = shared.failure
            if isinstance(exc, HangError):
                raise SpmdError(
                    f"SPMD hang (rank {failed}): {exc}", failed_rank=failed
                ) from exc
            raise SpmdError(
                f"SPMD run aborted (failure on rank {failed})", failed_rank=failed
            ) from None

    def _collect(self, contribution: Any, combine: Callable[[List[Any]], Any]) -> Any:
        """Two-phase collective: deposit, leader combines, all read.

        A ``combine`` failure on the wait's leader is recorded in the
        shared state *before* the barrier breaks, so peers (and the
        driver) see the true cause instead of a bare abort with no rank.
        """
        shared = self._shared
        shared.slots[self.rank] = contribution
        if self._wait() == 0:
            try:
                shared.result = combine(list(shared.slots))
            except BaseException as exc:  # noqa: BLE001 - must unblock peers
                shared.abort(self.rank, exc)
                raise SpmdError(
                    f"collective combine failed on rank {self.rank}: {exc!r}",
                    failed_rank=self.rank,
                ) from exc
        self._wait()
        result = shared.result
        return result


class ThreadBackend(Backend):
    """One thread per rank; the default (and only GIL-bound) backend."""

    name = "thread"

    def run_attempt(self, request: AttemptRequest) -> AttemptResult:
        """Launch, join, and account one attempt of ``request.size`` ranks."""
        size = request.size
        timeout = effective_timeout(request)
        wd_layer = find_layer(request.layers, "watchdog")
        watchdog = wd_layer.watchdog if wd_layer is not None else None
        shared = _Shared(size, timeout=timeout, watchdog=watchdog)
        comms = [ThreadComm(r, shared) for r in range(size)]
        outcomes: List[Optional[RankOutcome]] = [None] * size
        if watchdog is not None:
            watchdog.attach(size)
        san_state = (
            SanitizerState(size)
            if find_layer(request.layers, "sanitize") is not None
            else None
        )
        tracing = find_layer(request.layers, "trace") is not None
        if tracing:
            # Imported lazily: repro.trace depends on this module's package.
            from repro.trace.tracer import Tracer

            epoch = time.perf_counter()  # shared t=0 across rank timelines
        fn_args = request.args if request.store is None else (request.store,) + request.args

        def runner(rank: int) -> None:
            """Execute one rank: wrap layers, run the program, record."""
            comm = comms[rank]
            comm._mark = time.thread_time()  # clock baseline in the rank thread
            tracer = Tracer(rank, epoch=epoch) if tracing else None
            ctx = LayerContext(
                rank=rank,
                size=size,
                attempt=request.attempt,
                sanitizer_state=san_state,
                watchdog=watchdog,
                tracer=tracer,
            )
            facade = wrap_comm(comm, request.layers, ctx)
            try:
                if tracer is not None:
                    with tracer.activate():
                        value = request.fn(facade, *fn_args, **request.kwargs)
                else:
                    value = request.fn(facade, *fn_args, **request.kwargs)
            except BaseException as exc:  # noqa: BLE001 - must unblock peers
                if watchdog is not None:
                    watchdog.finished(rank, errored=True)
                shared.abort(rank, exc)
                return
            if watchdog is not None:
                watchdog.finished(rank)
            comm._begin()  # flush trailing compute time
            outcomes[rank] = RankOutcome(
                value,
                comm.stats,
                comm.compute_seconds,
                trace=tracer.report() if tracer is not None else None,
            )

        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True
            )
            for r in range(size)
        ]
        for t in threads:
            t.start()
        self._join(shared, threads)
        wall_seconds = time.perf_counter() - t0
        failed_rank = shared.failed_rank
        artifact: Optional[str] = None
        lost = CommStats()
        if failed_rank is not None:
            if watchdog is not None:
                # Flight-recorder dump for *any* failure (mismatch, injected
                # fault, program error); the hang path has already dumped.
                artifact = watchdog.dump_for_failure("spmd-error")
            for comm in comms:
                lost.merge(comm.stats)
        return AttemptResult(
            outcomes,
            wall_seconds,
            failed_rank=failed_rank,
            failure=shared.failure,
            artifact=artifact,
            lost_stats=lost,
        )

    @staticmethod
    def _join(shared: _Shared, threads: List[threading.Thread]) -> None:
        """Join the rank threads; never wedge when a timeout is armed.

        Without a timeout this is a plain join (unchanged semantics).
        With one, a thread that stays alive past a grace period *after
        the run has failed* is wedged outside the barrier protocol (e.g.
        an infinite compute loop); it is recorded as a hang on its rank
        and abandoned as a daemon so the driver regains control.
        """
        timeout = shared.timeout
        if timeout is None:
            for t in threads:
                t.join()
            return
        grace = timeout + 1.0
        alive = list(enumerate(threads))
        failed_at: Optional[float] = None
        while alive:
            for _, t in alive:
                t.join(0.05)
            alive = [(r, t) for r, t in alive if t.is_alive()]
            if not alive:
                return
            if shared.failed_rank is None:
                continue  # still running normally; keep waiting
            now = time.perf_counter()
            if failed_at is None:
                failed_at = now
            elif now - failed_at > grace:
                for r, _ in alive:
                    shared.abort(
                        r,
                        HangError(
                            f"rank {r} thread still running {grace:.1f}s after "
                            "the run aborted (wedged outside comm); abandoned",
                            rank=r,
                        ),
                    )
                return
