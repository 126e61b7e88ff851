"""Scaling arithmetic: from measured lab runs to paper-scale estimates.

The recipe (DESIGN.md §1): run the real algorithm at laboratory scale,
measure (a) the per-octant compute rate and (b) the communication
structure (calls, messages, bytes from :class:`CommStats`), then evaluate
the alpha-beta machine model at the paper's core counts with the
communication quantities scaled by their physical laws — surface terms as
``n^((d-1)/d)``, allgathers linearly in ``P``, reductions as ``log P``.
Efficiency series divide the smallest-P modeled time by each larger one,
the same normalization as the paper's weak-scaling charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.perf.machine import MachineModel


def surface_scale(n_lab: float, n_target: float, dim: int = 3) -> float:
    """Scaling factor for partition-boundary (surface) quantities."""
    if n_lab <= 0:
        return 1.0
    return (n_target / n_lab) ** ((dim - 1) / dim)


@dataclass
class CommCost:
    """Per-rank communication structure of one algorithm phase."""

    allreduces: float = 0.0
    allreduce_bytes: float = 8.0
    allgathers: float = 0.0
    allgather_bytes_per_rank: float = 32.0
    exchange_rounds: float = 0.0
    exchange_messages: float = 0.0  # per round, per rank
    exchange_bytes: float = 0.0  # per round, per rank
    overhead_seconds: float = 0.0  # flat extra (e.g. recovery/restart cost)

    def modeled_seconds(self, machine: MachineModel, P: int) -> float:
        t = self.allreduces * machine.allreduce_cost(P, self.allreduce_bytes)
        t += self.allgathers * machine.allgather_cost(P, self.allgather_bytes_per_rank)
        t += self.exchange_rounds * machine.exchange_cost(
            self.exchange_messages, self.exchange_bytes
        )
        return t + self.overhead_seconds

    def scaled(self, surface_factor: float = 1.0) -> "CommCost":
        """Same structure with surface-law-scaled exchange volume."""
        return CommCost(
            allreduces=self.allreduces,
            allreduce_bytes=self.allreduce_bytes,
            allgathers=self.allgathers,
            allgather_bytes_per_rank=self.allgather_bytes_per_rank,
            exchange_rounds=self.exchange_rounds,
            exchange_messages=self.exchange_messages,
            exchange_bytes=self.exchange_bytes * surface_factor,
            overhead_seconds=self.overhead_seconds,
        )


def comm_cost_from_stats(stats, rounds_hint: float = 1.0) -> CommCost:
    """Summarize a :class:`~repro.parallel.stats.CommStats` into a
    :class:`CommCost` (exchange totals are split over ``rounds_hint``)."""
    allred = stats.ops.get("allreduce")
    allg = stats.ops.get("allgather")
    exch = stats.ops.get("exchange")
    scan = stats.ops.get("exscan")
    cost = CommCost()
    if allred:
        cost.allreduces = allred.calls
        cost.allreduce_bytes = allred.bytes_sent / max(allred.calls, 1)
    if scan:
        cost.allreduces += scan.calls  # scans cost like reductions
    if allg:
        cost.allgathers = allg.calls
        cost.allgather_bytes_per_rank = allg.bytes_sent / max(allg.calls, 1)
    if exch:
        cost.exchange_rounds = max(rounds_hint, 1.0)
        cost.exchange_messages = exch.messages / max(rounds_hint, 1.0)
        cost.exchange_bytes = exch.bytes_sent / max(rounds_hint, 1.0)
    return cost


def comm_cost_from_run(report, rounds_hint: float = 1.0, recovery=None) -> CommCost:
    """Per-rank-average :class:`CommCost` for a whole SPMD run.

    ``report`` is a :class:`~repro.parallel.backend.SpmdReport`; the
    per-rank :class:`~repro.parallel.stats.CommStats` are combined with
    :meth:`CommStats.merge` and normalized by the rank count.  A
    :class:`~repro.parallel.run.RecoveryReport` adds its lost wall
    time as flat overhead — plus the lost attempts' traffic — so the
    modeled runtime of a resilient run charges for its recoveries.
    """
    from repro.parallel.stats import CommStats

    P = max(len(report.outcomes), 1)
    merged = CommStats()
    for outcome in report.outcomes:
        merged.merge(outcome.stats)
    if recovery is not None:
        merged.merge(recovery.lost_stats)
    cost = comm_cost_from_stats(merged, rounds_hint=rounds_hint)
    cost.allreduces /= P
    cost.allgathers /= P
    cost.exchange_messages /= P
    cost.exchange_bytes /= P
    if recovery is not None:
        cost.overhead_seconds += recovery.wall_seconds_lost
    return cost


@dataclass
class ScalingModel:
    """Weak/strong-scaling estimator for one algorithm phase.

    ``compute_rate`` is seconds of per-rank work per unit of per-rank
    problem size (e.g. per octant); ``comm`` the lab-measured structure;
    ``n_lab`` the per-rank size it was measured at.
    """

    machine: MachineModel
    compute_rate: float
    comm: CommCost
    n_lab: float
    dim: int = 3

    def time_at(self, P: int, n_per_rank: float) -> float:
        surface = surface_scale(self.n_lab, n_per_rank, self.dim)
        comm = self.comm.scaled(surface)
        return self.compute_rate * n_per_rank + comm.modeled_seconds(self.machine, P)


@dataclass
class WeakScalingSeries:
    """A weak-scaling curve: core counts and modeled/measured times."""

    core_counts: Sequence[int]
    times: Sequence[float]
    label: str = ""

    def efficiency(self) -> List[float]:
        t0 = self.times[0]
        return [t0 / max(t, 1e-300) for t in self.times]

    def normalized(self, per: float = 1.0) -> List[float]:
        return [t / per for t in self.times]


def strong_scaling_efficiency(
    core_counts: Sequence[int], times: Sequence[float]
) -> List[float]:
    """Measured/ideal speedup ratio relative to the smallest core count."""
    p0, t0 = core_counts[0], times[0]
    out = []
    for p, t in zip(core_counts, times):
        ideal = t0 * p0 / p
        out.append(ideal / max(t, 1e-300))
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width ASCII table (benchmark output helper)."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for c, v in enumerate(row):
            if isinstance(v, float):
                s = f"{v:.4g}"
            else:
                s = str(v)
            cols[c].append(s)
    widths = [max(len(s) for s in col) for col in cols]
    lines = []
    for r in range(len(rows) + 1):
        line = "  ".join(cols[c][r].rjust(widths[c]) for c in range(len(cols)))
        lines.append(line)
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
