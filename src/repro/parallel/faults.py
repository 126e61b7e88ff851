"""Deterministic fault injection for SPMD runs.

Production AMR campaigns at Jaguar scale treat node failure as routine;
the forest algorithms must therefore be *testable* under failure.  This
module provides that machine without touching any algorithm code:

* :class:`FaultPlan` — a declarative, seed-reproducible schedule of
  faults, each addressed by ``(rank, call index)`` where the call index
  counts the communicator operations *that rank* has issued.  Counting
  per rank makes injection independent of thread scheduling: the same
  plan against the same program always fires at the same logical point.
* :class:`FaultyComm` — a decorator over any :class:`Comm` that consults
  the plan before every operation and injects crashes
  (:class:`InjectedFailure`), payload corruption, payload truncation,
  one-shot delays, or a persistent per-rank straggler (:data:`SLOW`),
  then delegates to the wrapped communicator.

Compose it innermost on any run via the
:class:`~repro.parallel.layers.Faults` layer — ``RunConfig(recover=True,
layers=[Faults(plan=...)])`` or ``Faults(wrapper=...)`` for per-attempt
control — to exercise recovery paths.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.ops import ReduceOp

# Fault kinds ----------------------------------------------------------------

CRASH = "crash"
CORRUPT = "corrupt"
TRUNCATE = "truncate"
DELAY = "delay"
DIE = "die"
SLOW = "slow"

_KINDS = (CRASH, CORRUPT, TRUNCATE, DELAY, DIE, SLOW)


class InjectedFailure(RuntimeError):
    """The synthetic failure raised by a :data:`CRASH` fault."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault on ``rank`` at its ``at_call``-th comm operation.

    ``kind`` is one of :data:`CRASH`, :data:`CORRUPT`, :data:`TRUNCATE`,
    :data:`DELAY`, :data:`DIE`, :data:`SLOW`; ``seconds`` applies to
    delays and stragglers.  :data:`DIE` is the hard variant of
    :data:`CRASH`: inside a process-backend worker it SIGKILLs the whole
    process (the parent sees a dropped connection, exactly like real node
    loss); on the thread backend — where killing the process would take
    the driver down too — it degrades to an :class:`InjectedFailure`.

    :data:`DELAY` is a one-shot hiccup at exactly ``at_call``;
    :data:`SLOW` is the *persistent straggler*: from ``at_call`` onward
    the rank sleeps ``seconds`` after **every** operation completes
    (modeling a persistently slow node observed as late arrival at the
    next collective).  Sleeping on the exit side is deliberate: the rank
    still holds its open heartbeat in call ``k`` while its peers enter
    call ``k+1``, so the hang watchdog's divergent-site diagnosis names
    the straggler — which makes deadline-expiry and backoff paths
    deterministically testable.
    """

    kind: str
    rank: int
    at_call: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.rank < 0 or self.at_call < 0:
            raise ValueError("fault rank and call index must be nonnegative")
        if self.kind == SLOW and self.seconds <= 0.0:
            raise ValueError("SLOW faults need a positive per-call seconds")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults for one SPMD program.

    Build explicitly from :class:`Fault` entries or draw a reproducible
    random plan with :meth:`seeded`.  The ``seed`` also parameterizes the
    corruption noise so repeated runs corrupt payloads identically.
    """

    faults: List[Fault] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._by_site: Dict[Tuple[int, int], List[Fault]] = {}
        for f in self.faults:
            self._by_site.setdefault((f.rank, f.at_call), []).append(f)

    @classmethod
    def crash(cls, rank: int, at_call: int, seed: int = 0) -> "FaultPlan":
        """The most common plan: one rank dies at its Nth collective."""
        return cls([Fault(CRASH, rank, at_call)], seed=seed)

    @classmethod
    def die(cls, rank: int, at_call: int, seed: int = 0) -> "FaultPlan":
        """Hard process death (SIGKILL) at one rank's Nth collective."""
        return cls([Fault(DIE, rank, at_call)], seed=seed)

    @classmethod
    def slow(
        cls, rank: int, at_call: int, seconds: float, seed: int = 0
    ) -> "FaultPlan":
        """Persistent straggler: ``rank`` lags ``seconds`` per call from ``at_call`` on."""
        return cls([Fault(SLOW, rank, at_call, seconds=seconds)], seed=seed)

    @classmethod
    def seeded(
        cls,
        seed: int,
        size: int,
        ncalls: int,
        crash_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        truncate_prob: float = 0.0,
        delay_prob: float = 0.0,
        max_delay: float = 0.001,
    ) -> "FaultPlan":
        """Draw an i.i.d. fault schedule over ``size`` ranks x ``ncalls``
        call slots from a seeded generator (reproducible by construction)."""
        rng = np.random.default_rng(seed)
        faults: List[Fault] = []
        for rank in range(size):
            for call in range(ncalls):
                u = rng.random(4)
                if u[0] < crash_prob:
                    faults.append(Fault(CRASH, rank, call))
                    break  # this rank is dead; later slots are unreachable
                if u[1] < corrupt_prob:
                    faults.append(Fault(CORRUPT, rank, call))
                if u[2] < truncate_prob:
                    faults.append(Fault(TRUNCATE, rank, call))
                if u[3] < delay_prob:
                    faults.append(
                        Fault(DELAY, rank, call, seconds=float(rng.random()) * max_delay)
                    )
        return cls(faults, seed=seed)

    def at(self, rank: int, call: int) -> List[Fault]:
        """Faults scheduled for ``rank``'s ``call``-th operation."""
        return self._by_site.get((rank, call), [])

    def __len__(self) -> int:
        return len(self.faults)

    # Serialization --------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the plan to a JSON string (exact round-trip).

        The schedule is a pure value — kinds, integer addresses, float
        delays, and the seed — so JSON carries it losslessly between
        processes, config files, and CI artifacts.
        """
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [
                    {
                        "kind": f.kind,
                        "rank": f.rank,
                        "at_call": f.at_call,
                        "seconds": f.seconds,
                    }
                    for f in self.faults
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Reconstruct a plan from :meth:`to_json` output.

        Round-trips exactly: ``FaultPlan.from_json(p.to_json()) == p``
        (both dataclasses compare by value).  Unknown kinds or negative
        addresses are rejected by :class:`Fault` validation.
        """
        data = json.loads(text)
        faults = [
            Fault(
                kind=f["kind"],
                rank=int(f["rank"]),
                at_call=int(f["at_call"]),
                seconds=float(f.get("seconds", 0.0)),
            )
            for f in data.get("faults", [])
        ]
        return cls(faults, seed=int(data.get("seed", 0)))


# Payload mutation -----------------------------------------------------------


def _site_rng(seed: int, rank: int, call: int) -> np.random.Generator:
    return np.random.default_rng((seed, rank, call))


def corrupt_payload(obj: Any, rng: np.random.Generator) -> Any:
    """Deterministically perturb one payload (bit-flip stand-in).

    Arrays get noise added to one element, bytes get one byte XORed,
    numbers are nudged, containers corrupt one member.  Anything
    unrecognized is replaced by a sentinel, modeling an undecodable
    message.
    """
    if obj is None:
        return None
    if isinstance(obj, np.ndarray):
        out = obj.copy()
        if out.size:
            idx = int(rng.integers(out.size))
            flat = out.reshape(-1)
            if out.dtype.kind in "iu":
                flat[idx] = flat[idx] ^ np.asarray(1 << 7, dtype=out.dtype)
            elif out.dtype.kind == "f":
                flat[idx] = flat[idx] * 2.0 + 1.0
            elif out.dtype.kind == "b":
                flat[idx] = ~flat[idx]
        return out
    if isinstance(obj, (bytes, bytearray)):
        if not len(obj):
            return obj
        out = bytearray(obj)
        idx = int(rng.integers(len(out)))
        out[idx] ^= 0xFF
        return bytes(out)
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, int):
        return obj ^ (1 << int(rng.integers(16)))
    if isinstance(obj, float):
        return obj * 2.0 + 1.0
    if isinstance(obj, tuple):
        if not obj:
            return obj
        idx = int(rng.integers(len(obj)))
        return tuple(
            corrupt_payload(v, rng) if i == idx else v for i, v in enumerate(obj)
        )
    if isinstance(obj, list):
        if not obj:
            return obj
        out_list = list(obj)
        idx = int(rng.integers(len(out_list)))
        out_list[idx] = corrupt_payload(out_list[idx], rng)
        return out_list
    if isinstance(obj, dict):
        if not obj:
            return obj
        keys = sorted(obj, key=repr)
        k = keys[int(rng.integers(len(keys)))]
        out_dict = dict(obj)
        out_dict[k] = corrupt_payload(out_dict[k], rng)
        return out_dict
    return "<corrupted>"


def truncate_payload(obj: Any) -> Any:
    """Drop the tail of a payload (a partially delivered message)."""
    if isinstance(obj, np.ndarray):
        return obj[: len(obj) // 2].copy() if obj.ndim else obj
    if isinstance(obj, (bytes, bytearray)):
        return obj[: len(obj) // 2]
    if isinstance(obj, str):
        return obj[: len(obj) // 2]
    if isinstance(obj, (list, tuple)):
        return type(obj)(obj[: max(len(obj) // 2, 1)]) if len(obj) else obj
    return obj


# The communicator decorator -------------------------------------------------


class FaultyComm(CommDecorator):
    """A :class:`Comm` decorator that injects a :class:`FaultPlan`.

    Every operation first advances this rank's call counter, fires any
    faults scheduled at that index, possibly mutates the outgoing payload,
    then delegates to the wrapped communicator.  Stats are shared with the
    wrapped comm so metering still reflects the traffic that was attempted.
    """

    def __init__(self, inner: Comm, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.calls = 0
        self.injected: List[Fault] = []
        #: This rank's persistent stragglers, applied by :meth:`_post`.
        self._slow: List[Fault] = [
            f for f in plan.faults if f.kind == SLOW and f.rank == inner.rank
        ]

    def _step(self, payload: Any) -> Any:
        """Fire faults for this call index; return the (maybe mutated) payload."""
        call = self.calls
        self.calls += 1
        for fault in self.plan.at(self.rank, call):
            if fault.kind == SLOW:
                continue  # persistent stragglers fire on the exit side (_post)
            self.injected.append(fault)
            if fault.kind == DELAY:
                time.sleep(fault.seconds)
            elif fault.kind == DIE:
                import multiprocessing

                if multiprocessing.current_process().name.startswith("spmd-rank"):
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                # Thread backend: a real SIGKILL would take the driver
                # down too, so degrade to the soft crash.
                raise InjectedFailure(
                    f"injected death on rank {self.rank} at call {call} "
                    "(degraded to a soft crash outside the process backend)"
                )
            elif fault.kind == CRASH:
                raise InjectedFailure(
                    f"injected crash on rank {self.rank} at call {call}"
                )
            elif fault.kind == CORRUPT:
                payload = corrupt_payload(
                    payload, _site_rng(self.plan.seed, self.rank, call)
                )
            elif fault.kind == TRUNCATE:
                payload = truncate_payload(payload)
        return payload

    def _post(self) -> None:
        """Apply the persistent straggler lag for the call that just completed.

        :data:`SLOW` sleeps on the *exit* side of the operation: this rank
        has already contributed (its peers are released) but it lingers
        before issuing its next call, exactly like a rank whose compute
        between collectives is slow.  The open-heartbeat divergence this
        produces is what lets the watchdog name the straggler.
        """
        call = self.calls - 1
        lag = 0.0
        for fault in self._slow:
            if call >= fault.at_call:
                lag += fault.seconds
                self.injected.append(fault)
        if lag > 0.0:
            time.sleep(lag)

    def _invoke(
        self, op: str, payload: Any, root: Optional[int], reduce_op: Optional[ReduceOp]
    ) -> Any:
        """Count the call, inject its faults, delegate, then apply straggler lag."""
        result = super()._invoke(op, self._step(payload), root, reduce_op)
        self._post()
        return result
