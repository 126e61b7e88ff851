"""The communicator interface, its one metered frontend, and its decorators.

:class:`Comm` is the only channel rank programs may use to interact; it
offers the collectives the forest algorithms need (barrier, bcast,
gather, scatter, allgather, reduce, allreduce, scan, exscan, alltoall)
plus :meth:`Comm.exchange`, a sparse all-to-all-v that subsumes the
point-to-point octant traffic of Partition/Balance/Ghost/Nodes.

:class:`MeteredComm` implements the ten collectives once — argument
validation, :class:`~repro.parallel.stats.CommStats` metering and
combine logic — over three transport primitives.  Every base
communicator is a transport under it: :class:`SerialComm` (size 1,
here), :class:`~repro.parallel.machine.ThreadComm` and
:class:`~repro.parallel.process_backend.ProcessComm`.  A program
therefore meters the same on one rank with or without a machine.
:class:`CommDecorator` is the one place that knows how a communicator
wrapping another forwards the ten collectives; the fault, sanitizer,
watchdog and tracing layers are its subclasses and override a single
hook.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional

from repro.parallel.collectives import collective
from repro.parallel.ops import SUM, ReduceOp, identity_for, payload_nbytes
from repro.parallel.stats import CommStats


class Comm(ABC):
    """Abstract SPMD communicator for ``size`` ranks, of which this is ``rank``."""

    rank: int
    size: int
    stats: CommStats

    @abstractmethod
    @collective("comm", "barrier")
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""

    @abstractmethod
    @collective("comm", "bcast")
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns root's value."""

    @abstractmethod
    @collective("comm", "gather")
    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one value per rank; ``root`` returns the list, others ``None``."""

    @abstractmethod
    @collective("comm", "scatter")
    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        """Scatter ``objs[r]`` (given at ``root``) to each rank ``r``."""

    @abstractmethod
    @collective("comm", "allgather")
    def allgather(self, obj: Any) -> List[Any]:
        """Gather one value per rank and return the full list on every rank."""

    @abstractmethod
    @collective("comm", "allreduce")
    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce ``value`` over all ranks with ``op``; result on every rank."""

    @abstractmethod
    @collective("comm", "exscan")
    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction: rank r gets op-fold of ranks 0..r-1.

        Rank 0 receives the identity element of ``op``.
        """

    @abstractmethod
    @collective("comm", "scan")
    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction: rank r gets op-fold of ranks 0..r."""

    @abstractmethod
    @collective("comm", "alltoall")
    def alltoall(self, objs: List[Any]) -> List[Any]:
        """Dense personalized exchange: send ``objs[r]`` to rank r; return
        the list of values received, indexed by source rank."""

    @abstractmethod
    @collective("comm", "exchange")
    def exchange(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Sparse personalized exchange (the workhorse of the forest code).

        ``outbox`` maps destination rank to payload; returns the inbox
        mapping source rank to payload.  Self-sends are delivered.  Every
        rank must call this collectively (possibly with an empty outbox).
        """

    # Derived conveniences -------------------------------------------------

    @collective("comm", "reduce")
    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (others get ``None``); default via allreduce."""
        result = self.allreduce(value, op)
        return result if self.rank == root else None


class MeteredComm(Comm):
    """The one collective frontend: every base communicator is a transport under it.

    Subclasses provide the transport: :meth:`_wait` synchronizes all
    ranks once, :meth:`_collect` runs one two-phase collective (deposit a
    contribution, combine the full slot list, read the result), and
    :meth:`_route` delivers personalized items (``exchange``,
    ``alltoall``, ``scatter``) so each rank receives only its own.  The
    frontend performs all argument validation and meters every operation
    into :attr:`stats` with identical message/byte arithmetic regardless
    of transport, so :class:`~repro.parallel.stats.CommStats` compare
    equal between backends, and between :class:`SerialComm` and a
    one-rank machine, for the same program.

    ``compute_seconds`` accumulates this rank's CPU time spent *outside*
    communication (measured with ``time.thread_time`` so blocked waits
    do not count), exactly as the original thread machine did.
    """

    def __init__(self, rank: int, size: int) -> None:
        """Initialize metering state for ``rank`` of a ``size``-rank run."""
        self.rank = rank
        self.size = size
        self.stats = CommStats()
        self.compute_seconds = 0.0
        self._mark = time.thread_time()

    # Transport primitives (subclass responsibility) -----------------------

    @abstractmethod
    def _wait(self) -> int:
        """One synchronization round; returns 0 on exactly one rank."""

    @abstractmethod
    def _collect(self, contribution: Any, combine: Callable[[List[Any]], Any]) -> Any:
        """Two-phase collective: deposit, combine the slot list, read."""

    def _route(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Deliver ``outbox[d]`` to rank ``d``; return ``{src: item}`` for this rank.

        The default is one :meth:`_collect` and a pick of this rank's item
        from every outbox (free over the thread backend's shared slots);
        the process backend routes, so a rank receives only its inbox.
        """
        boxes = self._collect(outbox, lambda slots: slots)
        return {src: box[self.rank] for src, box in enumerate(boxes) if self.rank in box}

    # Internal machinery ---------------------------------------------------

    def _begin(self) -> None:
        """Flush compute time accumulated since the last operation ended."""
        now = time.thread_time()
        self.compute_seconds += now - self._mark

    def _end(self) -> None:
        """Restart the compute clock as an operation returns."""
        self._mark = time.thread_time()

    def _record_chain(self, op: str, value: Any) -> None:
        """Meter a prefix collective as a chain: rank r sends its prefix to
        rank r + 1, so every rank but the last sends one message."""
        last = self.rank == self.size - 1
        self.stats.record(op, 0 if last else 1, 0 if last else payload_nbytes(value))

    def _check_root(self, root: int) -> None:
        """Validate a collective's root rank."""
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size-{self.size} comm")

    # Collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self._begin()
        self.stats.record("barrier", 0, 0)
        self._wait()
        self._wait()
        self._end()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns root's value."""
        self._begin()
        self._check_root(root)
        sent = payload_nbytes(obj) if self.rank == root else 0
        self.stats.record("bcast", self.size - 1 if self.rank == root else 0, sent)
        result = self._collect(obj if self.rank == root else None, lambda slots: slots[root])
        self._end()
        return result

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one value per rank; ``root`` returns the list, others ``None``."""
        self._begin()
        self._check_root(root)
        self.stats.record("gather", 0 if self.rank == root else 1, payload_nbytes(obj))
        result = self._collect(obj, list)
        self._end()
        return result if self.rank == root else None

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        """Scatter ``objs[r]`` (given at ``root``) to each rank ``r``."""
        self._begin()
        self._check_root(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter requires a list of one value per rank at root")
            sent = sum(payload_nbytes(o) for i, o in enumerate(objs) if i != root)
            self.stats.record("scatter", self.size - 1, sent)
        else:
            self.stats.record("scatter", 0, 0)
        inbox = self._route(dict(enumerate(objs)) if self.rank == root else {})
        self._end()
        return inbox[root]

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one value per rank and return the full list on every rank."""
        self._begin()
        self.stats.record("allgather", self.size - 1, payload_nbytes(obj))
        result = self._collect(obj, list)
        self._end()
        return list(result)

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce ``value`` over all ranks with ``op``; result on every rank."""
        self._begin()
        self.stats.record("allreduce", self.size - 1, payload_nbytes(value))

        def combine(slots: List[Any]) -> Any:
            """Left-fold the per-rank contributions with ``op``."""
            acc = slots[0]
            for v in slots[1:]:
                acc = op(acc, v)
            return acc

        result = self._collect(value, combine)
        self._end()
        return result

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction: rank r gets op-fold of ranks 0..r-1."""
        self._begin()
        self._record_chain("exscan", value)

        def combine(slots: List[Any]) -> List[Any]:
            """Exclusive prefix folds, one slot per rank."""
            prefixes = [identity_for(op, slots[0])]
            acc = slots[0]
            for v in slots[1:]:
                prefixes.append(acc)
                acc = op(acc, v)
            return prefixes

        result = self._collect(value, combine)
        self._end()
        return result[self.rank]

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction: rank r gets op-fold of ranks 0..r."""
        self._begin()
        self._record_chain("scan", value)

        def combine(slots: List[Any]) -> List[Any]:
            """Inclusive prefix folds, one slot per rank."""
            prefixes = []
            acc = None
            for i, v in enumerate(slots):
                acc = v if i == 0 else op(acc, v)
                prefixes.append(acc)
            return prefixes

        result = self._collect(value, combine)
        self._end()
        return result[self.rank]

    def alltoall(self, objs: List[Any]) -> List[Any]:
        """Dense personalized exchange: send ``objs[r]`` to rank r."""
        self._begin()
        if len(objs) != self.size:
            raise ValueError("alltoall requires one value per destination rank")
        sent = sum(payload_nbytes(o) for i, o in enumerate(objs) if i != self.rank)
        self.stats.record("alltoall", self.size - 1, sent)
        inbox = self._route(dict(enumerate(objs)))
        received = [inbox[src] for src in range(self.size)]
        self._end()
        return received

    def exchange(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Sparse personalized exchange (the workhorse of the forest code)."""
        self._begin()
        for dest in outbox:
            if not 0 <= dest < self.size:
                raise ValueError(f"exchange destination {dest} out of range")
        nmsg = sum(1 for d in outbox if d != self.rank)
        nbytes = sum(payload_nbytes(v) for d, v in outbox.items() if d != self.rank)
        self.stats.record("exchange", nmsg, nbytes)
        inbox = self._route(dict(outbox))
        self._end()
        return inbox


class SerialComm(MeteredComm):
    """The single-rank communicator: :class:`MeteredComm` at size 1.

    Its transport is trivial — no peer to wait for, and the one slot a
    collective combines is this rank's own contribution — so validation
    and :class:`~repro.parallel.stats.CommStats` are exactly those of a
    one-rank :class:`~repro.parallel.run.Machine`.  Algorithms written
    against :class:`Comm` run unchanged on a single rank.
    """

    def __init__(self) -> None:
        """Rank 0 of a size-1 run."""
        super().__init__(0, 1)

    def _wait(self) -> int:
        """No peers to wait for."""
        return 0

    def _collect(self, contribution: Any, combine: Callable[[List[Any]], Any]) -> Any:
        """Combine the one slot there is."""
        return combine([contribution])


class CommDecorator(Comm):
    """A :class:`Comm` that wraps another and forwards every collective.

    The ten abstract collectives are implemented once, here, and each
    routes through :meth:`_invoke`.  A decorator (fault injection,
    sanitizer, watchdog, tracing, call-site recording) overrides only
    that hook and calls ``super()._invoke(...)`` where the wrapped
    operation should run, so a collective added to :class:`Comm` is
    forwarded by every layer or by none.  ``rank``, ``size`` and
    ``stats`` alias the wrapped communicator's — metering is the same
    whether or not a run is decorated, and decorators compose in any
    order.  The derived :meth:`Comm.reduce` is inherited, so it reaches
    the hook as the ``allreduce`` it expands to.
    """

    def __init__(self, inner: Comm) -> None:
        """Wrap ``inner``, aliasing its rank, size and stats."""
        self.inner = inner
        self.rank = inner.rank
        self.size = inner.size
        self.stats = inner.stats

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Run collective ``op`` on the wrapped communicator.

        ``payload`` is the operation's data argument (``None`` for
        ``barrier``); ``root`` is set for the rooted operations and
        ``reduce_op`` for the reductions, ``None`` otherwise.
        """
        call = getattr(self.inner, op)
        if root is not None:
            return call(payload, root=root)
        if reduce_op is not None:
            return call(payload, reduce_op)
        if op == "barrier":
            return call()
        return call(payload)

    def barrier(self) -> None:
        """Forwarded :meth:`Comm.barrier`."""
        self._invoke("barrier", None, None, None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Forwarded :meth:`Comm.bcast`."""
        return self._invoke("bcast", obj, root, None)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Forwarded :meth:`Comm.gather`."""
        return self._invoke("gather", obj, root, None)

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        """Forwarded :meth:`Comm.scatter`."""
        return self._invoke("scatter", objs, root, None)

    def allgather(self, obj: Any) -> List[Any]:
        """Forwarded :meth:`Comm.allgather`."""
        return self._invoke("allgather", obj, None, None)

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Forwarded :meth:`Comm.allreduce`."""
        return self._invoke("allreduce", value, None, op)

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Forwarded :meth:`Comm.exscan`."""
        return self._invoke("exscan", value, None, op)

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Forwarded :meth:`Comm.scan`."""
        return self._invoke("scan", value, None, op)

    def alltoall(self, objs: List[Any]) -> List[Any]:
        """Forwarded :meth:`Comm.alltoall`."""
        return self._invoke("alltoall", objs, None, None)

    def exchange(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Forwarded :meth:`Comm.exchange`."""
        return self._invoke("exchange", outbox, None, None)
