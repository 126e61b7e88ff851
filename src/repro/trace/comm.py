"""The tracing communicator decorator.

:class:`TracingComm` wraps any :class:`~repro.parallel.comm.Comm` (the
same decorator pattern as :class:`~repro.parallel.faults.FaultyComm`) and
attributes every operation's traffic to the innermost open phase of a
:class:`~repro.trace.tracer.Tracer`.  It recomputes nothing: the wrapped
communicator already meters exact message counts and byte volumes into
its :class:`~repro.parallel.stats.CommStats`, so the decorator simply
diffs the per-op counters around the delegated call and forwards the
delta (plus the wall time spent inside the operation, which is where
load imbalance surfaces as wait time).

Stats alias the wrapped comm's, so global metering is unchanged whether
or not a run is traced, and decorators compose in any order.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.ops import ReduceOp
from repro.trace.tracer import Tracer


class TracingComm(CommDecorator):
    """A :class:`Comm` decorator routing per-op traffic into a tracer."""

    def __init__(self, inner: Comm, tracer: Tracer) -> None:
        """Wrap ``inner`` so its traffic is attributed to ``tracer``'s phases."""
        super().__init__(inner)
        self.tracer = tracer

    def _counters(self, op: str) -> Tuple[int, int]:
        """The wrapped comm's ``(messages, bytes_sent)`` so far for ``op``."""
        s = self.stats.ops.get(op)
        return (s.messages, s.bytes_sent) if s is not None else (0, 0)

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Delegate, then record ``op``'s counter delta and wall time."""
        msgs0, bytes0 = self._counters(op)
        t0 = time.perf_counter()
        result = super()._invoke(op, payload, root, reduce_op)
        dt = time.perf_counter() - t0
        msgs, nbytes = self._counters(op)
        self.tracer.record_comm(op, msgs - msgs0, nbytes - bytes0, seconds=dt)
        return result
