"""Tests for the RunConfig/Machine launch API."""

import pytest

from repro.parallel import (
    MAX_RANKS,
    MemoryCheckpointStore,
    FaultPlan,
    FaultyComm,
    Machine,
    ProcessBackend,
    RunConfig,
    Sanitize,
    Trace,
    Watchdog,
    get_backend,
)


# RunConfig ------------------------------------------------------------------


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(size=0)
    with pytest.raises(ValueError):
        RunConfig(size=MAX_RANKS + 1)
    with pytest.raises(ValueError):
        RunConfig(size=2, backend="mpi")
    with pytest.raises(ValueError):
        RunConfig(size=2, max_retries=-1)
    with pytest.raises(ValueError):
        RunConfig(size=2, min_size=3)
    with pytest.raises(ValueError):
        RunConfig(size=2, min_size=0)
    with pytest.raises(ValueError):
        RunConfig(size=2, timeout=0.0)


def test_runconfig_canonicalizes_layer_order():
    cfg = RunConfig(size=2, layers=[Trace(), Watchdog(), Sanitize()])
    assert [layer.kind for layer in cfg.layers] == ["sanitize", "watchdog", "trace"]


def test_runconfig_rejects_non_layers():
    with pytest.raises(TypeError):
        RunConfig(size=2, layers=["sanitize"])


# Machine --------------------------------------------------------------------


def test_machine_resolves_backend_once():
    assert Machine(RunConfig(size=2)).backend.name == "thread"
    assert Machine(RunConfig(size=2, backend="process")).backend.name == "process"


def test_machine_is_reusable():
    machine = Machine(RunConfig(size=3))
    assert machine.run(lambda c: c.allreduce(1)).values == [3, 3, 3]
    assert machine.run(lambda c: c.rank * 2).values == [0, 2, 4]


def test_machine_forwards_args_and_kwargs():
    def prog(comm, base, scale=1):
        return base + comm.rank * scale

    result = Machine(RunConfig(size=3)).run(prog, 100, scale=10)
    assert result.values == [100, 110, 120]


def test_machine_explicit_store_without_recover():
    store = MemoryCheckpointStore()

    def prog(comm, st):
        st.save({"from": comm.rank} if comm.rank == 0 else None)
        return comm.rank

    result = Machine(RunConfig(size=2)).run(prog, store=store)
    assert result.values == [0, 1]
    assert result.recovery is None
    assert store.load() == {"from": 0}


def test_plain_run_has_no_recovery_report():
    result = Machine(RunConfig(size=2)).run(lambda c: c.rank)
    assert result.recovery is None
    assert result.report.values == [0, 1]


def test_recovering_run_without_failures_reports_one_attempt():
    def prog(comm, store):
        return comm.allreduce(1)

    result = Machine(RunConfig(size=2, recover=True)).run(prog)
    assert result.values == [2, 2]
    assert result.recovery is not None
    assert result.recovery.attempts == 1
    assert result.recovery.recoveries == 0


# Backend registry -----------------------------------------------------------


def test_get_backend_rejects_unknown_name():
    with pytest.raises(ValueError):
        get_backend("mpi")


def test_process_backend_validates_options():
    with pytest.raises(ValueError):
        ProcessBackend(start_method="teleport")


def test_attempt_offset_shifts_the_layer_attempt_index():
    # A driver retrying *above* Machine.run (e.g. a service session loop)
    # bumps attempt_offset so attempt-0-keyed fault wrappers do not
    # re-fire on every outer retry.
    from repro.parallel import Faults, SpmdError

    plan = FaultPlan.crash(rank=0, at_call=0)

    def attempt_zero_only(comm, attempt):
        return FaultyComm(comm, plan) if attempt == 0 else comm

    def prog(comm):
        comm.barrier()
        return comm.rank

    with pytest.raises(SpmdError):
        Machine(RunConfig(size=2, layers=[Faults(wrapper=attempt_zero_only)])).run(prog)
    shifted = RunConfig(
        size=2, layers=[Faults(wrapper=attempt_zero_only)], attempt_offset=1
    )
    assert Machine(shifted).run(prog).values == [0, 1]
    with pytest.raises(ValueError):
        RunConfig(size=2, attempt_offset=-1)
