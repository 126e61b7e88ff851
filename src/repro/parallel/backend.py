"""Execution backends for the SPMD machine.

The paper's algorithms are backend-agnostic: a rank program talks only to
its :class:`~repro.parallel.comm.Comm`.  This module defines the contract
an execution backend fulfils to run ``P`` such programs concurrently.
Every backend's communicator subclasses
:class:`~repro.parallel.comm.MeteredComm`, the one collective frontend,
and supplies only its transport, so accounting is byte-exact across
backends by construction.  The module holds:

* :class:`Backend` — one launch strategy.  ``run_attempt`` executes a
  single attempt of ``size`` ranks and reports outcomes or the first
  failure; the retry loop of resilient runs lives above it in
  :mod:`repro.parallel.run`.
* :func:`get_backend` — the registry mapping ``"thread"`` /
  ``"process"`` to :class:`~repro.parallel.machine.ThreadBackend` and
  :class:`~repro.parallel.process_backend.ProcessBackend`.

:class:`SpmdError`, :class:`RankOutcome` and :class:`SpmdReport` are
defined here, and only here, because every backend produces them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.parallel.stats import CommStats

MAX_RANKS = 1024

#: Names of the supported execution backends, in documentation order.
BACKENDS = ("thread", "process")


class SpmdError(RuntimeError):
    """Raised on all surviving ranks when a peer rank fails.

    ``failed_rank`` is the lowest rank whose own exception (not a
    cascaded abort) brought the run down, or ``None`` when unknown.
    """

    def __init__(self, message: str, failed_rank: Optional[int] = None) -> None:
        """Record the message and the first failed rank (if attributable)."""
        super().__init__(message)
        self.failed_rank = failed_rank

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle support: carry ``failed_rank`` and the chained cause.

        Exceptions lose ``__cause__`` under default pickling; ship it as
        state so a worker-side ``raise ... from exc`` survives the trip
        through the pipe (the parent re-raises with the true cause).
        """
        return (
            type(self),
            (self.args[0] if self.args else "", self.failed_rank),
            {"__cause__": self.__cause__},
        )

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore the chained cause recorded by :meth:`__reduce__`."""
        self.__cause__ = state.get("__cause__")


@dataclass
class RankOutcome:
    """Result and metering for one rank of an SPMD run."""

    value: Any
    stats: CommStats
    compute_seconds: float
    trace: Any = None  # TraceReport when the run was traced


@dataclass
class SpmdReport:
    """Everything a detailed SPMD run learned about its successful attempt."""

    outcomes: List[RankOutcome]
    wall_seconds: float

    @property
    def values(self) -> List[Any]:
        """Per-rank return values, indexed by rank."""
        return [o.value for o in self.outcomes]

    def merged_stats(self) -> CommStats:
        """All ranks' communication counters accumulated into one table."""
        merged = CommStats()
        for o in self.outcomes:
            merged.merge(o.stats)
        return merged

    @property
    def trace_reports(self) -> List[Any]:
        """Per-rank :class:`~repro.trace.tracer.TraceReport`s (traced runs)."""
        return [o.trace for o in self.outcomes if o.trace is not None]

    def profile(self, wall_seconds: Optional[float] = None) -> Any:
        """Merge the per-rank traces into a :class:`~repro.trace.RunProfile`.

        Raises :class:`ValueError` when the run was not traced (enable
        with ``RunConfig(layers=[Trace()])``).
        """
        reports = self.trace_reports
        if not reports:
            raise ValueError("run was not traced; use RunConfig(layers=[Trace()])")
        from repro.trace.profile import RunProfile

        if wall_seconds is None:
            wall_seconds = self.wall_seconds
        return RunProfile.from_reports(reports, wall_seconds=wall_seconds)


@dataclass
class AttemptRequest:
    """One launch of ``size`` ranks, as handed to a :class:`Backend`.

    ``layers`` is the normalized decorator stack (see
    :mod:`repro.parallel.layers`); ``attempt`` is the zero-based retry
    index of resilient runs (plain runs always pass 0).  ``store``, when
    not ``None``, is the run's checkpoint store; the backend injects it
    (or a cross-process relay to it) as the rank program's first
    argument after the communicator.  ``timeout`` arms every blocking
    collective wait; ``None`` falls back to the watchdog layer's timeout
    when one is configured, else waits indefinitely.
    ``max_replacements`` is this attempt's budget of in-place worker
    respawns (process backend; other backends ignore it).
    """

    size: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    layers: Tuple[Any, ...] = ()
    attempt: int = 0
    timeout: Optional[float] = None
    store: Any = None
    max_replacements: int = 0

    def __post_init__(self) -> None:
        """Validate the rank count against the machine-wide cap."""
        if not 1 <= self.size <= MAX_RANKS:
            raise ValueError(f"size must be in [1, {MAX_RANKS}], got {self.size}")


@dataclass
class AttemptResult:
    """What one :meth:`Backend.run_attempt` launch produced.

    Exactly one of two shapes: a success has every entry of ``outcomes``
    filled and no ``failure``; a failed attempt carries the lowest-rank
    primary ``failure`` (plus ``failed_rank``), whatever traffic the
    doomed ranks performed (``lost_stats``), and the flight-recorder
    ``artifact`` when a watchdog dumped one.

    Either shape may additionally record *in-place replacements* (process
    backend with a ``max_replacements`` budget): workers that died and
    were respawned without tearing the attempt down.  A successful
    attempt with replacements still fills every outcome; its
    ``lost_stats`` then carries the traffic rolled back during recovery.
    """

    outcomes: List[Optional[RankOutcome]]
    wall_seconds: float
    failed_rank: Optional[int] = None
    failure: Optional[BaseException] = None
    artifact: Optional[str] = None
    lost_stats: CommStats = field(default_factory=CommStats)
    replacements: int = 0
    replaced_ranks: List[int] = field(default_factory=list)
    replacement_seconds: float = 0.0
    replacement_artifacts: List[str] = field(default_factory=list)
    replacement_failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Whether any rank failed (the attempt produced no report)."""
        return self.failure is not None or self.failed_rank is not None

    def report(self) -> SpmdReport:
        """The successful attempt's :class:`SpmdReport`."""
        assert all(o is not None for o in self.outcomes)
        return SpmdReport(
            [o for o in self.outcomes if o is not None], self.wall_seconds
        )

    def raise_failure(self) -> None:
        """Re-raise the recorded failure, naming the first failed rank.

        When a flight recorder was dumped for this attempt, its artifact
        path is chained into the message so a post-mortem never starts
        from a bare traceback.
        """
        rank = self.failed_rank
        exc = self.failure
        assert exc is not None
        if isinstance(exc, SpmdError):
            raise exc
        message = f"SPMD run failed on rank {rank}: {exc!r}"
        if self.artifact is not None and self.artifact not in message:
            message += f" [flight recorder: {self.artifact}]"
        raise SpmdError(message, failed_rank=rank) from exc


class Backend(ABC):
    """One strategy for executing the ranks of an SPMD attempt.

    Backends guarantee identical *semantics*: the same rank program with
    the same inputs produces the same per-rank values and byte-exact
    :class:`~repro.parallel.stats.CommStats` on any backend (only wall
    time differs).  The decorator stack of
    :mod:`repro.parallel.layers` composes identically over either.
    """

    #: Registry name of the backend (``"thread"`` or ``"process"``).
    name: str = ""

    @abstractmethod
    def run_attempt(self, request: AttemptRequest) -> AttemptResult:
        """Execute one attempt of ``request.size`` ranks to completion."""

    def close(self) -> None:
        """Release any long-lived resources the backend holds.

        The thread backend holds none, so this default is a no-op.  The
        process backend overrides it to retire its warm worker pool (see
        ``ProcessBackend(persistent=True)``).  Safe to call repeatedly;
        a closed backend may still run attempts (it simply cold-starts).
        """

    def __enter__(self) -> "Backend":
        """Support ``with get_backend(...) as backend:`` lifecycles."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Close on scope exit."""
        self.close()


def effective_timeout(request: AttemptRequest) -> Optional[float]:
    """The barrier-wait timeout for an attempt.

    An explicit ``request.timeout`` wins; otherwise a configured watchdog
    layer supplies its own timeout; otherwise waits are unbounded.
    """
    if request.timeout is not None:
        return request.timeout
    from repro.parallel.layers import find_layer

    wd = find_layer(request.layers, "watchdog")
    if wd is not None:
        return wd.watchdog.timeout
    return None


def get_backend(name: str, **options: Any) -> Backend:
    """Resolve a backend by registry name.

    ``options`` are forwarded to the backend constructor (the process
    backend accepts ``start_method`` and ``persistent``; the thread
    backend takes none).  Unknown names raise :class:`ValueError`.
    """
    if name == "thread":
        from repro.parallel.machine import ThreadBackend

        return ThreadBackend(**options)
    if name == "process":
        from repro.parallel.process_backend import ProcessBackend

        return ProcessBackend(**options)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
