"""Layer-stack conformance: every decorator forwards the full Comm ABC.

:class:`CommDecorator` is the one class that forwards the collectives;
every layer overrides only its ``_invoke`` hook.  These tests pin that
structure — no decorator re-declares a collective — and the behaviour:
a mock communicator records every delegated call, every
``CommDecorator`` subclass in the repo (the fault campaign's recorder
included) is driven through the complete ABC, and the call log must come
back exactly — same operations, same payloads, same roots.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.parallel import (
    SUM,
    FaultPlan,
    Faults,
    FaultyComm,
    HangWatchdog,
    LAYER_ORDER,
    Machine,
    RunConfig,
    Sanitize,
    SanitizedComm,
    Trace,
    Watchdog,
    WatchdogComm,
    wrap_comm,
)
from repro.parallel.comm import Comm, CommDecorator
from repro.parallel.layers import CommLayer, LayerContext, find_layer, normalize_layers
from repro.parallel.sanitizer import SanitizerState
from repro.parallel.stats import CommStats
from repro.trace.comm import TracingComm
from repro.trace.tracer import Tracer


class MockComm(Comm):
    """Size-1 communicator recording every delegated call."""

    def __init__(self):
        self.rank = 0
        self.size = 1
        self.stats = CommStats()
        self.calls = []

    def barrier(self):
        self.calls.append(("barrier",))

    def bcast(self, obj, root=0):
        self.calls.append(("bcast", obj, root))
        return obj

    def gather(self, obj, root=0):
        self.calls.append(("gather", obj, root))
        return [obj]

    def scatter(self, objs, root=0):
        self.calls.append(("scatter", tuple(objs), root))
        return objs[0]

    def allgather(self, obj):
        self.calls.append(("allgather", obj))
        return [obj]

    def allreduce(self, value, op=SUM):
        self.calls.append(("allreduce", value))
        return value

    def exscan(self, value, op=SUM):
        self.calls.append(("exscan", value))
        return 0

    def scan(self, value, op=SUM):
        self.calls.append(("scan", value))
        return value

    def alltoall(self, objs):
        self.calls.append(("alltoall", tuple(objs)))
        return list(objs)

    def exchange(self, outbox):
        self.calls.append(("exchange", tuple(sorted(outbox.items()))))
        return dict(outbox)


#: Expected call log after :func:`drive` — one entry per ABC method.
ALL_OPS = [
    ("barrier",),
    ("bcast", "x", 0),
    ("gather", "g", 0),
    ("scatter", ("s",), 0),
    ("allgather", "a"),
    ("allreduce", 3),
    ("exscan", 4),
    ("scan", 5),
    ("alltoall", (7,)),
    ("exchange", ((0, "m"),)),
]


def drive(comm):
    """Call every Comm operation once and check the returned values."""
    comm.barrier()
    assert comm.bcast("x", root=0) == "x"
    assert comm.gather("g", root=0) == ["g"]
    assert comm.scatter(["s"], root=0) == "s"
    assert comm.allgather("a") == ["a"]
    assert comm.allreduce(3, SUM) == 3
    comm.exscan(4, SUM)
    assert comm.scan(5, SUM) == 5
    assert comm.alltoall([7]) == [7]
    assert comm.exchange({0: "m"}) == {0: "m"}


def test_drive_covers_the_full_comm_abc():
    assert {op[0] for op in ALL_OPS} == set(Comm.__abstractmethods__)


def _attached_watchdog():
    wd = HangWatchdog(timeout=30.0)
    wd.attach(1)
    return wd


def _fault_campaign():
    """``tools/fault_campaign.py`` as a module (it defines ``_RecordingComm``)."""
    path = Path(__file__).resolve().parents[2] / "tools" / "fault_campaign.py"
    spec = importlib.util.spec_from_file_location("fault_campaign_tool", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_CAMPAIGN = _fault_campaign()

#: How to build each decorator over a mock; keyed by class so a new
#: ``CommDecorator`` subclass without an entry fails the census below.
DECORATE = {
    FaultyComm: lambda c: FaultyComm(c, FaultPlan([])),
    SanitizedComm: lambda c: SanitizedComm(c, SanitizerState(1)),
    WatchdogComm: lambda c: WatchdogComm(c, _attached_watchdog()),
    TracingComm: lambda c: TracingComm(c, Tracer(0)),
    _CAMPAIGN._RecordingComm: lambda c: _CAMPAIGN._RecordingComm(
        c, _CAMPAIGN.RecordingWrapper()
    ),
}


def test_every_decorator_subclass_is_driven():
    # By name: another test may have loaded the campaign tool a second time.
    assert {c.__name__ for c in CommDecorator.__subclasses__()} == {
        c.__name__ for c in DECORATE
    }


@pytest.mark.parametrize("cls", list(DECORATE), ids=lambda c: c.__name__)
def test_decorator_forwards_every_operation(cls):
    # Structural: the collectives are CommDecorator's, never re-declared.
    assert not set(vars(cls)) & (Comm.__abstractmethods__ | {"reduce"})
    mock = MockComm()
    wrapped = DECORATE[cls](mock)
    drive(wrapped)
    assert mock.calls == ALL_OPS
    # Stats alias the wrapped comm's: metering is decorator-agnostic.
    assert wrapped.stats is mock.stats
    assert (wrapped.rank, wrapped.size) == (0, 1)


def test_full_stack_forwards_every_operation():
    mock = MockComm()
    layers = [
        Faults(plan=FaultPlan([])),
        Sanitize(),
        Watchdog(_attached_watchdog()),
        Trace(),
    ]
    top = wrap_comm(mock, layers)
    drive(top)
    assert mock.calls == ALL_OPS


# Canonical ordering ---------------------------------------------------------


def test_wrap_comm_composes_in_canonical_order():
    mock = MockComm()
    # Deliberately shuffled: list order must be irrelevant.
    layers = [Trace(), Watchdog(_attached_watchdog()), Sanitize(), Faults(plan=FaultPlan([]))]
    top = wrap_comm(mock, layers)
    assert isinstance(top, TracingComm)
    assert isinstance(top.inner, WatchdogComm)
    assert isinstance(top.inner.inner, SanitizedComm)
    assert isinstance(top.inner.inner.inner, FaultyComm)
    assert top.inner.inner.inner.inner is mock
    assert wrap_comm(mock, ()) is mock  # no layers: no wrapper at all


# Cost when disabled: nothing is constructed, nothing is on the comm path


def _comm_chain(comm):
    """Class names from the communicator a rank program holds down to the transport."""
    chain = [type(comm).__name__]
    while isinstance(comm, CommDecorator):
        comm = comm.inner
        chain.append(type(comm).__name__)
    return chain


@pytest.mark.parametrize(
    "transport, config",
    [("ThreadComm", {"backend": "thread"}),
     ("ProcessComm", {"backend": "process", "start_method": "fork"})],
)
def test_unlayered_machine_hands_rank_programs_the_bare_transport(transport, config):
    values = Machine(RunConfig(size=2, **config)).run(_comm_chain).values
    assert values == [[transport]] * 2
    layered = Machine(RunConfig(size=2, layers=[Sanitize()], **config)).run(_comm_chain).values
    assert layered == [["SanitizedComm", transport]] * 2  # the probe does see a decorator


def test_normalize_layers_is_stable_and_validated():
    a, b = Sanitize(), Sanitize()
    ordered = normalize_layers([Trace(), a, Watchdog(), b, Faults(plan=FaultPlan([]))])
    assert [layer.kind for layer in ordered] == ["faults", "sanitize", "sanitize", "watchdog", "trace"]
    assert ordered[1] is a and ordered[2] is b  # stable within a kind
    with pytest.raises(TypeError):
        normalize_layers(["trace"])

    class Bogus(CommLayer):
        kind = "bogus"

    with pytest.raises(ValueError):
        normalize_layers([Bogus()])


def test_layer_order_constant_matches_kinds():
    assert LAYER_ORDER == ("faults", "sanitize", "watchdog", "trace")
    kinds = [Faults(plan=FaultPlan([])).kind, Sanitize().kind, Watchdog().kind, Trace().kind]
    assert kinds == list(LAYER_ORDER)


def test_find_layer():
    wd = Watchdog()
    layers = normalize_layers([Trace(), wd])
    assert find_layer(layers, "watchdog") is wd
    assert find_layer(layers, "faults") is None


def test_faults_layer_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        Faults()
    with pytest.raises(ValueError):
        Faults(plan=FaultPlan([]), wrapper=lambda c, a: c)


def test_faults_wrapper_none_means_unwrapped():
    mock = MockComm()
    layer = Faults(wrapper=lambda comm, attempt: None)
    assert layer.wrap(mock, LayerContext(rank=0, size=1)) is mock


def test_faults_wrapper_receives_attempt_index():
    seen = []

    def wrapper(comm, attempt):
        seen.append(attempt)
        return comm

    layer = Faults(wrapper=wrapper)
    layer.wrap(MockComm(), LayerContext(rank=0, size=1, attempt=5))
    assert seen == [5]
