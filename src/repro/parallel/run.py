"""The SPMD launch API: ``RunConfig`` + ``Machine``.

This is the one way to execute a rank program.  A run is
described declaratively by a :class:`RunConfig` — how many ranks, which
execution backend (``"thread"`` or ``"process"``), which communicator
:mod:`layers <repro.parallel.layers>`, timeouts, and the recovery
policy — and executed by a :class:`Machine`::

    from repro.parallel import Machine, RunConfig, Sanitize, Trace

    config = RunConfig(size=4, backend="process", layers=[Sanitize(), Trace()])
    result = Machine(config).run(step, forest_args)
    print(result.values, result.report.merged_stats().summary())

Whatever the backend, the same program yields the same values and
byte-exact :class:`~repro.parallel.stats.CommStats` — backends change
how ranks execute, never what they compute (``docs/BACKENDS.md``).

Under recovery (``RunConfig(recover=True)``) the rank program receives
a :class:`CheckpointStore` after the communicator, failed attempts are
relaunched from the last checkpoint (optionally shrinking the rank
count), and the returned :class:`RunResult` carries a
:class:`RecoveryReport`.  Under the process backend this recovers from
*genuinely dead* worker processes (SIGKILL included), not merely
simulated faults.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.parallel.backend import (
    BACKENDS,
    MAX_RANKS,
    AttemptRequest,
    Backend,
    SpmdReport,
    get_backend,
)
from repro.parallel.layers import CommLayer, normalize_layers
from repro.parallel.stats import CommStats


class CheckpointStore(ABC):
    """A checkpoint slot surviving across restart attempts.

    Rank programs call :meth:`save` (typically only the gather root passes
    a non-``None`` payload) and :meth:`load` to resume.  The store lives in
    the driver, outside the rank threads or processes, so it survives a
    failed attempt; under the process backend workers talk to it through
    a relay and payloads must be picklable.

    Implementations: :class:`MemoryCheckpointStore` (volatile, free) and
    :class:`~repro.io.store.DiskCheckpointStore` (durable generation
    directories with crash-consistent commits and integrity fallback).
    """

    @abstractmethod
    def save(self, payload: Any) -> None:
        """Record ``payload`` as the latest checkpoint (``None`` is a no-op)."""

    @abstractmethod
    def load(self) -> Any:
        """Latest checkpoint payload, or ``None`` if nothing was saved."""

    @property
    def octants(self) -> int:
        """Global octant count of the stored checkpoint (0 if not a forest)."""
        try:
            payload = self.load()
        except Exception:  # noqa: BLE001 - accounting must never mask recovery
            return 0
        return int(getattr(payload, "global_octants", 0) or 0)


class MemoryCheckpointStore(CheckpointStore):
    """In-memory checkpoint slot: survives attempts, not the process."""

    def __init__(self) -> None:
        """Create an empty store."""
        self._lock = threading.Lock()
        self._payload: Any = None
        self.saves = 0

    def save(self, payload: Any) -> None:
        """Record ``payload`` as the latest checkpoint (``None`` is a no-op)."""
        if payload is None:
            return
        with self._lock:
            self._payload = payload
            self.saves += 1

    def load(self) -> Any:
        """Latest checkpoint payload, or ``None`` if nothing was saved."""
        with self._lock:
            return self._payload

    @property
    def octants(self) -> int:
        """Global octant count of the stored checkpoint (0 if not a forest)."""
        with self._lock:
            return int(getattr(self._payload, "global_octants", 0) or 0)


def _failure_description(rank: Optional[int], exc: Optional[BaseException]) -> str:
    """One line naming a failed rank and its full exception chain."""
    who = f"rank {rank}" if rank is not None else "unattributed rank"
    if exc is None:
        return f"{who}: unknown failure"
    parts = [repr(exc)]
    seen = {id(exc)}
    cause = exc.__cause__
    while cause is not None and id(cause) not in seen:
        parts.append(repr(cause))
        seen.add(id(cause))
        cause = cause.__cause__
    return f"{who}: " + " <- ".join(parts)


@dataclass
class RecoveryReport:
    """Structured accounting of a recovering (``recover=True``) run."""

    attempts: int = 1  # total launches, including the successful one
    recoveries: int = 0  # failed launches that were retried
    ranks_lost: List[int] = field(default_factory=list)
    initial_size: int = 0
    final_size: int = 0
    checkpoints_used: int = 0  # retries that restored from a checkpoint
    octants_repartitioned: int = 0  # octants redistributed by restores
    wall_seconds_lost: float = 0.0  # wall time of the failed attempts
    lost_stats: CommStats = field(default_factory=CommStats)
    artifacts: List[str] = field(default_factory=list)  # flight-recorder dumps
    replacements: int = 0  # dead workers respawned in place (no teardown)
    replaced_ranks: List[int] = field(default_factory=list)
    replacement_seconds: float = 0.0  # total time-to-recover of replacements
    shrinks: int = 0  # retries that dropped a rank
    full_retries: int = 0  # retries at the same rank count
    failures: List[str] = field(default_factory=list)  # per-event descriptions

    def summary(self) -> str:
        """One-line human-readable account of the recovery history."""
        ranks = ",".join(str(r) for r in self.ranks_lost) or "-"
        text = (
            f"attempts {self.attempts} (recoveries {self.recoveries}: "
            f"{self.shrinks} shrink, {self.full_retries} retry; "
            f"{self.replacements} in-place replacements"
        )
        if self.replacements:
            text += f" in {self.replacement_seconds:.3f}s"
        text += (
            f"), ranks lost [{ranks}], "
            f"size {self.initial_size}->{self.final_size}, "
            f"checkpoints used {self.checkpoints_used}, "
            f"octants repartitioned {self.octants_repartitioned}, "
            f"wall lost {self.wall_seconds_lost:.3f}s, "
            f"lost messages {self.lost_stats.total_messages}, "
            f"lost bytes {self.lost_stats.total_bytes}"
        )
        if self.failures:
            text += f"; last failure: {self.failures[-1]}"
        return text


@dataclass
class RunConfig:
    """Declarative description of one SPMD run.

    ``size``
        Number of ranks, in ``[1, MAX_RANKS]``.
    ``backend``
        ``"thread"`` (ranks are threads — cheap, GIL-serialized compute)
        or ``"process"`` (ranks are worker processes — true parallel
        compute, picklable programs/payloads required).  See
        ``docs/BACKENDS.md`` for the full matrix.
    ``layers``
        Communicator decorators (:class:`~repro.parallel.layers.Faults`,
        :class:`~repro.parallel.layers.Sanitize`,
        :class:`~repro.parallel.layers.Watchdog`,
        :class:`~repro.parallel.layers.Trace`), composed in the canonical
        order regardless of list order.
    ``timeout``
        Bound (seconds) on every blocking collective wait; ``None``
        defers to the watchdog layer's timeout, or waits forever.
    ``recover`` / ``max_retries`` / ``shrink_on_failure`` / ``min_size``
        The self-healing policy.  With ``recover=True`` the rank program
        receives a :class:`CheckpointStore` after the communicator and
        failed attempts are retried from the last checkpoint, dropping
        one rank per failure when ``shrink_on_failure`` is set (never
        below ``min_size``).
    ``store``
        The run's default :class:`CheckpointStore` (an explicit
        ``Machine.run(..., store=)`` argument wins).  ``None`` means a
        fresh :class:`MemoryCheckpointStore` per recovering run; pass a
        :class:`~repro.io.store.DiskCheckpointStore` for durability
        across driver crashes.
    ``max_replacements``
        Process backend only: how many dead workers one attempt may
        respawn *in place* (surviving workers roll back to the last
        checkpoint without teardown) before falling back to the
        shrink/retry path.  0 (the default) disables warm replacement;
        the thread backend ignores it.  See ``docs/BACKENDS.md``.
    ``start_method``
        Process backend only: the :mod:`multiprocessing` start method
        (``"spawn"`` is the portable default; ``"fork"`` is much faster
        to launch where available).
    ``warm_pool``
        Process backend only: keep the worker processes alive between
        runs of this machine and re-dispatch the next rank program to
        them over the pipe instead of cold-starting ``size`` processes
        per attempt.  Pooled jobs must be picklable (module-level rank
        programs); an unpicklable job silently falls back to a fresh
        spawn.  Pair with ``Machine.close()`` (or a ``with`` block) to
        retire the pool.  The thread backend ignores it.
    ``attempt_offset``
        Added to the attempt index delivered to the layer stack
        (:class:`~repro.parallel.layers.LayerContext.attempt`).  Drivers
        that retry *above* ``Machine.run`` — e.g. the service session
        retry loop — bump this so attempt-keyed fault wrappers do not
        re-fire on every outer retry.
    """

    size: int
    backend: str = "thread"
    layers: Sequence[CommLayer] = ()
    timeout: Optional[float] = None
    recover: bool = False
    max_retries: int = 3
    shrink_on_failure: bool = False
    min_size: int = 1
    store: Optional[CheckpointStore] = None
    max_replacements: int = 0
    start_method: str = "spawn"
    warm_pool: bool = False
    attempt_offset: int = 0

    def __post_init__(self) -> None:
        """Validate the configuration and canonicalize the layer stack."""
        if not 1 <= self.size <= MAX_RANKS:
            raise ValueError(f"size must be in [1, {MAX_RANKS}], got {self.size}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        self.layers = normalize_layers(self.layers)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_replacements < 0:
            raise ValueError("max_replacements must be >= 0")
        if self.store is not None and not (
            callable(getattr(self.store, "save", None))
            and callable(getattr(self.store, "load", None))
        ):
            raise TypeError("store must provide save(payload) and load()")
        if not 1 <= self.min_size <= self.size:
            raise ValueError("min_size must be in [1, size]")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.attempt_offset < 0:
            raise ValueError("attempt_offset must be >= 0")


@dataclass
class RunResult:
    """What :meth:`Machine.run` returns.

    ``values`` are the per-rank return values of the successful attempt;
    ``report`` carries per-rank metering, traces, and wall time;
    ``recovery`` is the :class:`RecoveryReport` of a ``recover=True``
    run (``None`` for plain runs).
    """

    values: List[Any]
    report: SpmdReport
    recovery: Optional[RecoveryReport] = None


class Machine:
    """Executes rank programs according to one :class:`RunConfig`.

    A machine is cheap to build and (apart from an optional warm worker
    pool) stateless between runs; reuse one for many launches of the
    same configuration.  The execution backend is resolved once at
    construction — or injected, so several machines can share one warm
    pool (the injected backend must match ``config.backend`` and is
    *not* closed by :meth:`close`; its owner retires it).

    With ``RunConfig(warm_pool=True)`` the machine holds worker
    processes between runs; use it as a context manager (or call
    :meth:`close`) so the pool is retired deterministically::

        with Machine(RunConfig(size=4, backend="process", warm_pool=True)) as m:
            first = m.run(step, args)
            second = m.run(step, args)  # reuses the warm workers
    """

    def __init__(self, config: RunConfig, backend: Optional[Backend] = None) -> None:
        """Resolve (or adopt) the backend executing ``config``."""
        self.config = config
        if backend is not None:
            if backend.name != config.backend:
                raise ValueError(
                    f"injected backend is {backend.name!r} but the config "
                    f"names {config.backend!r}"
                )
            self._backend = backend
            self._owns_backend = False
            return
        options = {}
        if config.backend == "process":
            options = {
                "start_method": config.start_method,
                "persistent": config.warm_pool,
            }
        self._backend = get_backend(config.backend, **options)
        self._owns_backend = True

    @property
    def backend(self) -> Backend:
        """The resolved execution backend."""
        return self._backend

    def close(self) -> None:
        """Retire backend resources this machine owns (the warm pool).

        Injected backends are left running — whoever built them closes
        them.  Idempotent; a closed machine can still run (it simply
        cold-starts workers again).
        """
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "Machine":
        """Enter a ``with`` block owning the machine's lifecycle."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Close the machine on scope exit."""
        self.close()

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        store: Optional[CheckpointStore] = None,
        **kwargs: Any,
    ) -> RunResult:
        """Run ``fn`` SPMD on the configured ranks.

        Plain runs call ``fn(comm, *args, **kwargs)`` on every rank and
        raise :class:`~repro.parallel.backend.SpmdError` (naming the
        first failed rank, original exception chained) if any rank
        fails.  With ``recover=True`` — or whenever ``store`` is passed —
        ``fn`` is called as ``fn(comm, store, *args, **kwargs)``; under
        ``recover=True`` failed attempts are retried from the last
        checkpoint up to ``max_retries`` times and the result carries a
        :class:`RecoveryReport`.
        """
        cfg = self.config
        if store is None:
            store = cfg.store
        if cfg.recover:
            return self._run_recovering(fn, args, kwargs, store)
        request = AttemptRequest(
            cfg.size,
            fn,
            args,
            kwargs,
            layers=cfg.layers,
            attempt=cfg.attempt_offset,
            timeout=cfg.timeout,
            store=store,
            max_replacements=cfg.max_replacements,
        )
        result = self._backend.run_attempt(request)
        if result.failed:
            result.raise_failure()
        report = result.report()
        recovery = None
        if result.replacements:
            # A plain run that silently replaced dead workers still
            # surfaces the fact: the caller gets an accounting report.
            recovery = RecoveryReport(initial_size=cfg.size, final_size=cfg.size)
            self._merge_replacements(recovery, result)
        return RunResult(report.values, report, recovery)

    @staticmethod
    def _merge_replacements(recovery: RecoveryReport, result: Any) -> None:
        """Fold one attempt's in-place replacement accounting into the report."""
        if not result.replacements:
            return
        recovery.replacements += result.replacements
        recovery.replaced_ranks.extend(result.replaced_ranks)
        recovery.ranks_lost.extend(result.replaced_ranks)
        recovery.replacement_seconds += result.replacement_seconds
        recovery.artifacts.extend(result.replacement_artifacts)
        recovery.failures.extend(result.replacement_failures)
        if not result.failed:
            # Rolled-back traffic of the surviving workers is lost work
            # even though the attempt ultimately succeeded.
            recovery.lost_stats.merge(result.lost_stats)

    def _run_recovering(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        store: Optional[CheckpointStore],
    ) -> RunResult:
        """The checkpoint/shrink/retry loop shared by every backend."""
        cfg = self.config
        if store is None:
            store = MemoryCheckpointStore()
        recovery = RecoveryReport(initial_size=cfg.size, final_size=cfg.size)
        cur_size = cfg.size
        attempt_idx = 0
        while True:
            request = AttemptRequest(
                cur_size,
                fn,
                args,
                kwargs,
                layers=cfg.layers,
                attempt=cfg.attempt_offset + attempt_idx,
                timeout=cfg.timeout,
                store=store,
                max_replacements=cfg.max_replacements,
            )
            result = self._backend.run_attempt(request)
            self._merge_replacements(recovery, result)
            if not result.failed:
                recovery.final_size = cur_size
                report = result.report()
                return RunResult(report.values, report, recovery)

            recovery.recoveries += 1
            recovery.wall_seconds_lost += result.wall_seconds
            recovery.lost_stats.merge(result.lost_stats)
            recovery.failures.append(
                _failure_description(result.failed_rank, result.failure)
            )
            if result.artifact is not None:
                recovery.artifacts.append(result.artifact)
            if result.failed_rank is not None:
                recovery.ranks_lost.append(result.failed_rank)
            if attempt_idx >= cfg.max_retries:
                recovery.attempts = attempt_idx + 1
                result.raise_failure()
            try:
                has_checkpoint = store.load() is not None
            except Exception:  # noqa: BLE001 - a corrupt store must not wedge retry
                has_checkpoint = False
            if has_checkpoint:
                recovery.checkpoints_used += 1
                recovery.octants_repartitioned += store.octants
            if cfg.shrink_on_failure and cur_size > cfg.min_size:
                cur_size -= 1
                recovery.shrinks += 1
            else:
                recovery.full_retries += 1
            attempt_idx += 1
            recovery.attempts = attempt_idx + 1
