"""Collective-call sanitizer: cross-rank validation of comm operations.

The silent failure mode that dominates debugging at scale is the
*mismatched collective*: one rank calls ``allreduce`` while its peers sit
in ``barrier``, or two ranks disagree about the reduction operator or the
payload shape.  Under MPI this deadlocks or silently corrupts; under the
in-process machine it silently combines garbage.  :class:`SanitizedComm`
is a decorator over any :class:`~repro.parallel.comm.Comm` (the same
pattern as :class:`~repro.parallel.faults.FaultyComm` and
:class:`~repro.trace.comm.TracingComm`) that fingerprints every
collective call — operation kind, per-rank sequence number, root,
reduction operator, and a structural payload summary — and cross-checks
the fingerprint against its peers *before* entering the collective,
raising :class:`CollectiveMismatchError` naming both divergent call
signatures instead of deadlocking.

Cross-validation happens through a :class:`SanitizerState` shared by all
ranks of one run (the sanitizer's analogue of an MPI tool's out-of-band
channel): the first rank to reach sequence number ``n`` registers its
signature as the reference; any later rank whose signature differs
raises.  Because every ``Comm`` operation is collective, per-rank
sequence numbers align across ranks in a correct program, so any
disagreement at the same index is a real divergence.

Enable per run with a :class:`~repro.parallel.layers.Sanitize` layer on
``RunConfig(layers=[...])``; disabled, nothing in this module is on any
comm path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.collectives import PAYLOAD_CHECKED_OPS
from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.ops import LAND, LOR, MAX, MIN, PROD, SUM, ReduceOp

#: Operations whose payload structure must agree across ranks (elementwise
#: reductions break on incongruent payloads).  gather/allgather/exchange
#: payloads may legitimately differ per rank (the "v" collectives).  The
#: set lives in the collective registry
#: (:mod:`repro.parallel.collectives`), shared with the static analyzer.
_PAYLOAD_CHECKED = PAYLOAD_CHECKED_OPS

_OP_NAMES = {
    id(SUM): "SUM",
    id(PROD): "PROD",
    id(MIN): "MIN",
    id(MAX): "MAX",
    id(LOR): "LOR",
    id(LAND): "LAND",
}


def reduce_op_name(op: ReduceOp) -> str:
    """Stable printable name for a reduction operator.

    The built-in operators of :mod:`repro.parallel.ops` map to their
    exported names; custom callables fall back to ``__name__``.  Two ranks
    passing *different* custom operators with the same name are not
    distinguished — the sanitizer checks signatures, not semantics.
    """
    name = _OP_NAMES.get(id(op))
    if name is not None:
        return name
    return getattr(op, "__name__", op.__class__.__name__)


def payload_fingerprint(obj: Any) -> str:
    """Structural summary of a payload (shape/dtype/size, never values).

    Two payloads that are elementwise-combinable produce equal
    fingerprints; a truncated or retyped payload produces a different
    one.  Containers are summarized one level deep.
    """
    if obj is None:
        return "none"
    if isinstance(obj, np.ndarray):
        return f"ndarray[{obj.dtype},{obj.shape}]"
    if isinstance(obj, (bytes, bytearray)):
        return f"bytes[{len(obj)}]"
    if isinstance(obj, bool):
        return "bool"
    if isinstance(obj, (int, np.integer)):
        return "int"
    if isinstance(obj, (float, np.floating)):
        return "float"
    if isinstance(obj, str):
        return f"str[{len(obj)}]"
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        inner = ",".join(payload_fingerprint(v) for v in obj[:8])
        if len(obj) > 8:
            inner += ",..."
        return f"{kind}[{len(obj)}:{inner}]"
    if isinstance(obj, dict):
        return f"dict[{len(obj)}]"
    return type(obj).__name__


@dataclass(frozen=True)
class CallSignature:
    """Fingerprint of one collective call on one rank.

    ``payload`` is ``None`` for operations whose payloads may legitimately
    differ across ranks; ``root`` and ``reduce_op`` are ``None`` where the
    operation has no such parameter.
    """

    op: str
    root: Optional[int] = None
    reduce_op: Optional[str] = None
    payload: Optional[str] = None

    def __str__(self) -> str:
        """Render as a readable call, e.g. ``allreduce(op=SUM, payload=int)``."""
        parts = []
        if self.root is not None:
            parts.append(f"root={self.root}")
        if self.reduce_op is not None:
            parts.append(f"op={self.reduce_op}")
        if self.payload is not None:
            parts.append(f"payload={self.payload}")
        return f"{self.op}({', '.join(parts)})"


class CollectiveMismatchError(RuntimeError):
    """Two ranks issued divergent collective calls at the same call index.

    Raised on the later-arriving rank *before* it enters the collective,
    so the run aborts with both call signatures on record instead of
    deadlocking or silently corrupting the combine.  ``rank``/``signature``
    describe the detecting rank; ``ref_rank``/``ref_signature`` the peer
    whose earlier registration it diverged from.
    """

    def __init__(
        self,
        rank: int,
        signature: CallSignature,
        ref_rank: int,
        ref_signature: CallSignature,
        seq: int,
    ) -> None:
        """Build the error naming both divergent call signatures."""
        self.rank = rank
        self.signature = signature
        self.ref_rank = ref_rank
        self.ref_signature = ref_signature
        self.seq = seq
        super().__init__(
            f"collective mismatch at call #{seq}: rank {rank} called "
            f"{signature} but rank {ref_rank} called {ref_signature}"
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle by field (workers relay this error across the pipe)."""
        return (
            type(self),
            (self.rank, self.signature, self.ref_rank, self.ref_signature, self.seq),
        )


class SanitizerState:
    """Cross-rank signature table shared by all ranks of one run.

    The first rank to reach a sequence number registers the reference
    signature; later ranks are checked against it and the entry is
    retired once all ``size`` ranks have passed it, so the table stays
    bounded by the rank skew, not the run length.
    """

    def __init__(self, size: int) -> None:
        """Create an empty table for a ``size``-rank run."""
        self.size = size
        self._lock = threading.Lock()
        # seq -> [ref_rank, ref_signature, ranks_seen]
        self._sites: Dict[int, List[Any]] = {}
        self.mismatches = 0

    def check(self, rank: int, seq: int, sig: CallSignature) -> None:
        """Validate ``rank``'s ``seq``-th call against the reference.

        Raises :class:`CollectiveMismatchError` on divergence.
        """
        with self._lock:
            entry = self._sites.get(seq)
            if entry is None:
                self._sites[seq] = [rank, sig, 1]
                return
            ref_rank, ref_sig, seen = entry
            if sig != ref_sig:
                self.mismatches += 1
                raise CollectiveMismatchError(rank, sig, ref_rank, ref_sig, seq)
            entry[2] = seen + 1
            if entry[2] >= self.size:
                del self._sites[seq]


class SanitizedComm(CommDecorator):
    """A :class:`Comm` decorator validating every call against its peers.

    Stats alias the wrapped comm's, so metering is unchanged; the
    decorator composes with :class:`~repro.parallel.faults.FaultyComm`
    and :class:`~repro.trace.comm.TracingComm` in any order.  In the
    canonical stack (:data:`~repro.parallel.layers.LAYER_ORDER`) it sits
    *above* the fault injector: it validates the program's calls, so an
    injected payload corruption — a transport fault, not a program
    divergence — surfaces downstream exactly where a real one would.
    """

    def __init__(self, inner: Comm, state: SanitizerState) -> None:
        """Wrap ``inner`` so every call is checked against ``state``."""
        if state.size != inner.size:
            raise ValueError(
                f"sanitizer state is for {state.size} ranks, comm has {inner.size}"
            )
        super().__init__(inner)
        self.state = state
        self.calls = 0

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Fingerprint the call, cross-validate it at this rank's index, delegate."""
        sig = CallSignature(
            op,
            root=root,
            reduce_op=reduce_op_name(reduce_op) if reduce_op is not None else None,
            payload=payload_fingerprint(payload) if op in _PAYLOAD_CHECKED else None,
        )
        seq = self.calls
        self.calls += 1
        self.state.check(self.rank, seq, sig)
        return super()._invoke(op, payload, root, reduce_op)
