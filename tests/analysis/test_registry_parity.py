"""Parity between the collective registry, the runtime, and the linter.

The registry (:mod:`repro.parallel.collectives`) is the single source
of truth for what counts as a collective.  These tests pin the three
consumers to it: the ``Comm`` ABC and ``Forest`` surfaces must carry
matching ``@collective`` stamps, the runtime sanitizer must sign
exactly the registry's comm ops, and the lint registry must mirror the
same name sets — so a collective added to one place without the others
fails here rather than silently drifting.
"""

import inspect

from repro.analysis.registry import DEFAULT_REGISTRY
from repro.p4est.forest import Forest
from repro.parallel.collectives import (
    COMM_COLLECTIVE_NAMES,
    COMM_COLLECTIVES,
    FOREST_COLLECTIVE_NAMES,
    FOREST_COLLECTIVES,
    PAYLOAD_CHECKED_OPS,
    UNIFORM_RESULT_OPS,
    collective_spec,
)
from repro.parallel.comm import Comm, SerialComm
from repro.parallel.ops import SUM
from repro.parallel.sanitizer import SanitizedComm

COMM_BY_NAME = {s.name: s for s in COMM_COLLECTIVES}
FOREST_BY_NAME = {s.name: s for s in FOREST_COLLECTIVES}


def test_comm_abc_methods_carry_registry_stamps():
    for name, spec in COMM_BY_NAME.items():
        method = getattr(Comm, name)
        stamped = collective_spec(method)
        assert stamped is spec, f"Comm.{name} missing/mismatched @collective"


def test_every_abstract_comm_method_is_registered():
    abstract = {
        name
        for name, member in inspect.getmembers(Comm)
        if getattr(member, "__isabstractmethod__", False)
    }
    # rank/size are identity properties, not operations.
    ops = {n for n in abstract if n not in {"rank", "size"}}
    assert ops == COMM_COLLECTIVE_NAMES - {"reduce"}
    # reduce is concrete (derived from gather+bcast) but still collective.
    assert collective_spec(Comm.reduce) is COMM_BY_NAME["reduce"]
    assert COMM_BY_NAME["reduce"].derived


def test_forest_collectives_carry_registry_stamps():
    for name, spec in FOREST_BY_NAME.items():
        method = inspect.getattr_static(Forest, name)
        if isinstance(method, classmethod):
            method = method.__func__
        stamped = collective_spec(method)
        assert stamped is spec, f"Forest.{name} missing/mismatched @collective"


class _RecordingState:
    """A ``SanitizerState`` stand-in that keeps every signature it is shown."""

    size = 1

    def __init__(self):
        self.signatures = []

    def check(self, rank, seq, sig):
        self.signatures.append(sig)


def test_sanitizer_checks_exactly_the_registry_ops():
    """Driving every registry comm op through ``SanitizedComm`` signs
    exactly the primitives (the derived ``reduce`` shows up as the
    ``allreduce`` it expands to), and only the payload-checked ops carry
    a payload fingerprint."""
    state = _RecordingState()
    comm = SanitizedComm(SerialComm(), state)
    args = {
        "barrier": (),
        "scatter": ([1],),
        "alltoall": ([1],),
        "exchange": ({0: 1},),
        "allreduce": (1, SUM),
        "exscan": (1, SUM),
        "scan": (1, SUM),
        "reduce": (1, SUM),
    }
    for name in sorted(COMM_COLLECTIVE_NAMES):
        getattr(comm, name)(*args.get(name, (1,)))
    assert {sig.op for sig in state.signatures} == COMM_COLLECTIVE_NAMES - {"reduce"}
    assert len(state.signatures) == len(COMM_COLLECTIVE_NAMES)
    assert {
        sig.op for sig in state.signatures if sig.payload is not None
    } == PAYLOAD_CHECKED_OPS


def test_sanitizer_payload_set_is_the_registry_view():
    from repro.parallel import sanitizer

    assert sanitizer._PAYLOAD_CHECKED is PAYLOAD_CHECKED_OPS
    assert PAYLOAD_CHECKED_OPS == {
        n for n, s in COMM_BY_NAME.items() if s.payload_checked
    }


def test_lint_registry_mirrors_collective_registry():
    reg = DEFAULT_REGISTRY
    assert reg.comm_collectives == COMM_COLLECTIVE_NAMES
    assert reg.forest_collectives == FOREST_COLLECTIVE_NAMES
    assert reg.uniform_comm_collectives == UNIFORM_RESULT_OPS
    assert reg.uniform_forest_collectives == {
        n for n, s in FOREST_BY_NAME.items() if s.uniform_result
    }


def test_uniform_result_ops_are_the_laundering_set():
    # Taint laundering is sound only for ops returning identical values
    # on every rank; pin the set so additions are deliberate.
    assert UNIFORM_RESULT_OPS == {"barrier", "bcast", "allgather", "allreduce"}
