"""The communicator interface and its single-rank implementation.

:class:`Comm` is the only channel rank programs may use to interact; it
offers the collectives the forest algorithms need (barrier, bcast,
gather, scatter, allgather, reduce, allreduce, scan, exscan, alltoall)
plus :meth:`Comm.exchange`, a sparse all-to-all-v that subsumes the
point-to-point octant traffic of Partition/Balance/Ghost/Nodes.

:class:`SerialComm` is the size-1 fast path; the multi-rank
:class:`~repro.parallel.machine.ThreadComm` lives in
:mod:`repro.parallel.machine`.  :class:`CommDecorator` is the one place
that knows how a communicator wrapping another forwards the ten
collectives; the fault, sanitizer, watchdog and tracing layers are its
subclasses and override a single hook.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional

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


class SerialComm(Comm):
    """The trivial single-rank communicator.

    All collectives are local identities; ``exchange`` delivers self-sends.
    Algorithms written against :class:`Comm` run unchanged (and fast) on a
    single rank.
    """

    def __init__(self) -> None:
        self.rank = 0
        self.size = 1
        self.stats = CommStats()

    def barrier(self) -> None:
        """No peers to wait for."""
        self.stats.record("barrier", 0, 0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """The root is this rank: return ``obj``."""
        self._check_root(root)
        self.stats.record("bcast", 0, 0)
        return obj

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """A one-element gather."""
        self._check_root(root)
        self.stats.record("gather", 0, payload_nbytes(obj))
        return [obj]

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        """Return the single element of ``objs``."""
        self._check_root(root)
        if objs is None or len(objs) != 1:
            raise ValueError("scatter on SerialComm requires a 1-element list")
        self.stats.record("scatter", 0, payload_nbytes(objs[0]))
        return objs[0]

    def allgather(self, obj: Any) -> List[Any]:
        """A one-element allgather."""
        self.stats.record("allgather", 0, payload_nbytes(obj))
        return [obj]

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reducing one value is the value."""
        self.stats.record("allreduce", 0, payload_nbytes(value))
        return value

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Rank 0's exclusive prefix is the identity of ``op``."""
        self.stats.record("exscan", 0, payload_nbytes(value))
        return identity_for(op, value)

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """The inclusive prefix of one value is the value."""
        self.stats.record("scan", 0, payload_nbytes(value))
        return value

    def alltoall(self, objs: List[Any]) -> List[Any]:
        """Deliver the single self-addressed element."""
        if len(objs) != 1:
            raise ValueError("alltoall on SerialComm requires a 1-element list")
        self.stats.record("alltoall", 0, payload_nbytes(objs[0]))
        return list(objs)

    def exchange(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        """Deliver self-sends; any other destination is an error."""
        for dest in outbox:
            if dest != 0:
                raise ValueError(f"exchange to rank {dest} on a size-1 comm")
        self.stats.record("exchange", 0, sum(payload_nbytes(v) for v in outbox.values()))
        return dict(outbox)

    def _check_root(self, root: int) -> None:
        if root != 0:
            raise ValueError(f"root {root} out of range for size-1 comm")


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
