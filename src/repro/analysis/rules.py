"""The ``spmdlint`` rule packs.

Each rule names one statically decidable way a rank program can break
the SPMD-uniformity contract the paper's algorithms (and our runtime
sanitizer) rely on.  The analyzer in :mod:`repro.analysis.taint` emits
findings tagged with these identifiers; this module is the one place
their numbering, severity, and prose live, consumed by the CLI
(``--list-rules``), the docs table in ``docs/CORRECTNESS.md``, and the
corpus tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Rule", "RULES", "rule", "PARSE_ERROR"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, severity, and what it catches."""

    id: str
    title: str
    severity: str  # "error" | "warning"
    description: str


#: SPMD000 is reserved for files the analyzer cannot parse.
PARSE_ERROR = Rule(
    "SPMD000",
    "unparseable file",
    "error",
    "The file could not be parsed as Python; nothing in it was checked.",
)

_RULES: Tuple[Rule, ...] = (
    PARSE_ERROR,
    Rule(
        "SPMD001",
        "collective under rank-dependent branch",
        "error",
        "A collective operation is control-dependent on rank-local state "
        "(comm.rank, local leaf data, gather/scatter/exchange results): "
        "some ranks would enter the collective while others skip it, "
        "diverging the collective sequence.  Make the predicate uniform "
        "first (e.g. allreduce it) or hoist the collective out of the "
        "branch.  Also reported when a rank-dependent return/break/"
        "continue can skip a later collective (a rank-dependent raise is "
        "not flagged: an uncaught exception aborts the machine "
        "attributably instead of diverging it).",
    ),
    Rule(
        "SPMD002",
        "rank-dependent loop trip count around a collective",
        "error",
        "A loop whose iteration count depends on rank-local state "
        "contains a collective: ranks would execute different numbers of "
        "collective calls.  Derive the trip count from uniform state "
        "(allreduce the continuation predicate, as Ghost/Balance do).",
    ),
    Rule(
        "SPMD003",
        "collective inside exception-swallowing try",
        "error",
        "A collective runs inside a try whose except handler swallows "
        "the exception (or inside a handler itself).  If the exception "
        "fires on a subset of ranks, those ranks silently fall out of "
        "the collective sequence while the rest proceed.  Re-raise, or "
        "make failure collective (allreduce an ok-flag) before handling.",
    ),
    Rule(
        "SPMD004",
        "nondeterministic payload into a collective",
        "error",
        "A collective payload is derived from nondeterministic state "
        "(set iteration order, os.getpid, time, unseeded RNG).  Per-rank "
        "payload *values* are what collectives are for, but "
        "nondeterministic ones make runs irreproducible and can diverge "
        "payload structure.  Sort set-derived sequences and seed RNGs.",
    ),
    Rule(
        "SPMD006",
        "comm layer stack built by hand",
        "warning",
        "A layer decorator comm (FaultyComm/SanitizedComm/WatchdogComm/"
        "TracingComm) is constructed directly instead of through "
        "RunConfig(layers=[...]) or repro.parallel.layers.wrap_comm, "
        "bypassing the canonical faults->sanitize->watchdog->trace "
        "ordering (and flagged as an error if the nesting order is "
        "visibly wrong).",
    ),
    Rule(
        "SPMD007",
        "unseeded RNG in an SPMD function",
        "warning",
        "A function that communicates (or receives a comm/forest) draws "
        "from an unseeded global RNG (random.*, numpy.random.*, "
        "default_rng()).  Ranks see different, irreproducible streams; "
        "any decision fed by them diverges.  Use a Generator seeded "
        "uniformly (or per-rank from a uniform base seed, on purpose).",
    ),
)

#: All rules keyed by identifier.
RULES: Dict[str, Rule] = {r.id: r for r in _RULES}


def rule(rule_id: str) -> Rule:
    """The :class:`Rule` for ``rule_id`` (raises ``KeyError`` if unknown)."""
    return RULES[rule_id]
