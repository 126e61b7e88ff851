"""Communication accounting.

Every :class:`~repro.parallel.comm.Comm` owns a :class:`CommStats`; each
collective or sparse exchange records one event with the number of
point-to-point messages it implies and the byte volume contributed by this
rank.  The performance model in :mod:`repro.perf` converts these counts
into modeled wall-clock at arbitrary machine scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple


@dataclass
class OpStats:
    """Aggregate counters for one operation name (e.g. ``"allgather"``)."""

    calls: int = 0
    messages: int = 0
    bytes_sent: int = 0

    def add(self, messages: int, bytes_sent: int) -> None:
        """Count one call implying ``messages`` messages and ``bytes_sent`` bytes."""
        self.calls += 1
        self.messages += messages
        self.bytes_sent += bytes_sent


@dataclass
class CommStats:
    """Per-rank communication counters, keyed by operation name."""

    ops: Dict[str, OpStats] = field(default_factory=dict)

    def record(self, op: str, messages: int, bytes_sent: int) -> None:
        """Count one call of ``op`` (see :meth:`OpStats.add`)."""
        self.ops.setdefault(op, OpStats()).add(messages, bytes_sent)

    def reset(self) -> None:
        """Forget every counter."""
        self.ops.clear()

    @property
    def total_calls(self) -> int:
        """Calls over all operations."""
        return sum(s.calls for s in self.ops.values())

    @property
    def total_messages(self) -> int:
        """Messages over all operations."""
        return sum(s.messages for s in self.ops.values())

    @property
    def total_bytes(self) -> int:
        """Bytes sent over all operations."""
        return sum(s.bytes_sent for s in self.ops.values())

    def merge(self, other: "CommStats") -> "CommStats":
        """Accumulate ``other``'s counters into this instance (returned)."""
        for op, s in other.ops.items():
            agg = self.ops.setdefault(op, OpStats())
            agg.calls += s.calls
            agg.messages += s.messages
            agg.bytes_sent += s.bytes_sent
        return self

    def items(self) -> Iterator[Tuple[str, OpStats]]:
        """``(op, counters)`` pairs in operation-name order."""
        return iter(sorted(self.ops.items()))

    def summary(self) -> str:
        """A fixed-width table: one row per operation, then the totals."""
        lines = [f"{'op':<12} {'calls':>8} {'messages':>10} {'bytes':>14}"]
        for op, s in self.items():
            lines.append(f"{op:<12} {s.calls:>8} {s.messages:>10} {s.bytes_sent:>14}")
        lines.append(
            f"{'total':<12} {self.total_calls:>8} {self.total_messages:>10} "
            f"{self.total_bytes:>14}"
        )
        return "\n".join(lines)
