"""The formalized Comm decorator stack.

PR 1–3 grew four communicator decorators — fault injection, the
collective sanitizer, the hang watchdog, and phase tracing — each wired
into the machine through its own keyword argument and ad-hoc wrapping
code.  This module replaces that with one explicit concept: a *layer*.

A :class:`CommLayer` knows how to wrap one rank's communicator; a run is
configured with ``RunConfig(layers=[...])`` and every backend composes
the same stack with :func:`wrap_comm`.  The composition order is
canonical and documented once, innermost to outermost::

    base comm  ->  Faults  ->  Sanitize  ->  Watchdog  ->  Trace

* **Faults innermost** — injected crashes, corruption, and delays hit
  the transport exactly as a real network fault would, below every
  observer.
* **Sanitize** above faults — the sanitizer validates the *program's*
  call signatures (an injected corruption is a transport fault, not a
  program divergence, so it surfaces downstream where a real one would).
* **Watchdog** above the sanitizer — heartbeats bracket everything that
  can block or raise below them, so a hang or mismatch always has an
  open heartbeat to diagnose.
* **Trace outermost** — phase attribution sees every operation,
  including the traffic attempted by faulty ranks.

:func:`wrap_comm` sorts the given layers into this order (the list order
users pass is irrelevant by design — order is policy, not input), so a
stack built by hand in a test is byte-identical to the machine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.parallel.comm import Comm
from repro.parallel.faults import FaultPlan, FaultyComm
from repro.parallel.sanitizer import SanitizedComm, SanitizerState
from repro.parallel.watchdog import HangWatchdog, WatchdogComm

#: Canonical composition order, innermost first.
LAYER_ORDER = ("faults", "sanitize", "watchdog", "trace")


@dataclass
class LayerContext:
    """Per-rank, per-attempt context a backend supplies to layer wrapping.

    Backends populate the shared facilities each layer needs: one
    ``sanitizer_state`` table per attempt (a cross-process relay under
    the process backend), the attempt's ``watchdog`` monitor (likewise
    relayed), and this rank's ``tracer``.  ``attempt`` is the zero-based
    retry index that fault wrappers key on.
    """

    rank: int
    size: int
    attempt: int = 0
    sanitizer_state: Optional[Any] = None
    watchdog: Optional[Any] = None
    tracer: Optional[Any] = None


class CommLayer:
    """One decorator in the communicator stack.

    Subclasses define ``kind`` (their slot in :data:`LAYER_ORDER`) and
    :meth:`wrap`.  Layers are configuration — one instance describes the
    decorator for *every* rank and every attempt of a run, so they hold
    plans and monitors, never per-rank state.
    """

    #: Slot name in :data:`LAYER_ORDER`; set by each subclass.
    kind: str = ""

    def wrap(self, comm: Comm, ctx: LayerContext) -> Comm:
        """Return ``comm`` wrapped in this layer's decorator."""
        raise NotImplementedError


class Faults(CommLayer):
    """Fault-injection layer (innermost): a plan or a per-attempt wrapper.

    ``Faults(plan)`` wraps every rank's comm in a
    :class:`~repro.parallel.faults.FaultyComm` driving the plan on every
    attempt.  ``Faults(wrapper=f)`` calls ``f(comm, attempt)`` instead —
    the idiom for injecting faults only on chosen attempts of a resilient
    run (return the comm unchanged, or ``None``, to inject nothing).
    Under the process backend both the plan and the wrapper function must
    be picklable (module-level functions are; lambdas are not under the
    default ``spawn`` start method).
    """

    kind = "faults"

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        wrapper: Optional[Callable[[Comm, int], Comm]] = None,
    ) -> None:
        """Configure with exactly one of ``plan`` or ``wrapper``."""
        if (plan is None) == (wrapper is None):
            raise ValueError("Faults takes exactly one of plan= or wrapper=")
        self.plan = plan
        self.wrapper = wrapper

    def wrap(self, comm: Comm, ctx: LayerContext) -> Comm:
        """Compose the fault injector for this rank and attempt."""
        if self.wrapper is not None:
            wrapped = self.wrapper(comm, ctx.attempt)
            return comm if wrapped is None else wrapped
        return FaultyComm(comm, self.plan)


class Sanitize(CommLayer):
    """Collective-sanitizer layer: cross-rank call-signature validation.

    The backend creates one :class:`~repro.parallel.sanitizer
    .SanitizerState` per attempt and supplies it through the context;
    standalone :func:`wrap_comm` use (single comm, e.g. in a test) falls
    back to a fresh private table.
    """

    kind = "sanitize"

    def wrap(self, comm: Comm, ctx: LayerContext) -> Comm:
        """Compose the sanitizer over ``comm`` using the shared table."""
        state = ctx.sanitizer_state
        if state is None:
            state = SanitizerState(comm.size)
        return SanitizedComm(comm, state)


class Watchdog(CommLayer):
    """Hang-watchdog layer: heartbeats, diagnosis, flight recorder.

    Holds the run's :class:`~repro.parallel.watchdog.HangWatchdog`
    (construct one implicitly via ``Watchdog(timeout=...)`` or pass your
    own to keep a handle on its artifacts).  Its timeout also arms every
    blocking wait of the machine when ``RunConfig.timeout`` is not set.
    Under the process backend the monitor lives in the parent; workers
    wrap with a relay to it supplied through the context, and the layer
    pickles as its configuration only.
    """

    kind = "watchdog"

    def __init__(
        self,
        watchdog: Optional[HangWatchdog] = None,
        *,
        timeout: float = 30.0,
        history: int = 64,
        artifact_dir: Optional[str] = None,
    ) -> None:
        """Adopt ``watchdog`` or build one from the given configuration."""
        if watchdog is None:
            watchdog = HangWatchdog(
                timeout=timeout, history=history, artifact_dir=artifact_dir
            )
        self.watchdog = watchdog

    def wrap(self, comm: Comm, ctx: LayerContext) -> Comm:
        """Compose the heartbeat decorator over ``comm``."""
        monitor = ctx.watchdog if ctx.watchdog is not None else self.watchdog
        return WatchdogComm(comm, monitor)

    def __getstate__(self) -> "dict[str, Any]":
        """Pickle as configuration (the live monitor holds locks/files)."""
        wd = self.watchdog
        return {
            "timeout": wd.timeout,
            "history": wd.history,
            "artifact_dir": wd.artifact_dir,
        }

    def __setstate__(self, state: "dict[str, Any]") -> None:
        """Rebuild a fresh (unattached) monitor from the configuration."""
        self.watchdog = HangWatchdog(**state)


class Trace(CommLayer):
    """Phase-tracing layer (outermost): per-phase traffic attribution.

    The backend creates one :class:`~repro.trace.tracer.Tracer` per rank
    (sharing an epoch so timelines align) and supplies it through the
    context; standalone use falls back to a private tracer, reachable as
    ``.tracer`` on the returned comm.
    """

    kind = "trace"

    def wrap(self, comm: Comm, ctx: LayerContext) -> Comm:
        """Compose the tracing decorator over ``comm``."""
        from repro.trace.comm import TracingComm
        from repro.trace.tracer import Tracer

        tracer = ctx.tracer
        if tracer is None:
            tracer = Tracer(comm.rank)
        return TracingComm(comm, tracer)


def normalize_layers(layers: Iterable[CommLayer]) -> Tuple[CommLayer, ...]:
    """Validate a layer list and sort it into the canonical order.

    The sort is stable, so several layers of the same kind keep their
    relative order; unknown kinds are rejected.
    """
    out: List[CommLayer] = []
    for layer in layers:
        if not isinstance(layer, CommLayer):
            raise TypeError(f"not a CommLayer: {layer!r}")
        if layer.kind not in LAYER_ORDER:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        out.append(layer)
    out.sort(key=lambda l: LAYER_ORDER.index(l.kind))
    return tuple(out)


def find_layer(layers: Sequence[CommLayer], kind: str) -> Optional[CommLayer]:
    """First layer of ``kind`` in ``layers``, or ``None``."""
    for layer in layers:
        if layer.kind == kind:
            return layer
    return None


def wrap_comm(
    comm: Comm,
    layers: Iterable[CommLayer],
    ctx: Optional[LayerContext] = None,
) -> Comm:
    """Compose ``layers`` over ``comm`` in the canonical order.

    This is the single wrapping path: every backend calls it per rank,
    and tests call it directly to build the machine's exact stack over
    any communicator (e.g. a :class:`~repro.parallel.comm.SerialComm` or
    a mock).  ``ctx`` defaults to a bare context derived from ``comm``.
    """
    if ctx is None:
        ctx = LayerContext(rank=comm.rank, size=comm.size)
    for layer in normalize_layers(layers):
        comm = layer.wrap(comm, ctx)
    return comm
