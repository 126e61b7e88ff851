"""Tests for self-healing SPMD runs and the failure-path hardening."""

import glob
import multiprocessing
import os

import pytest

from repro.parallel import (
    SUM,
    MemoryCheckpointStore,
    FaultPlan,
    Faults,
    FaultyComm,
    SpmdError,
)
from tests.parallel.helpers import run, run_recovering, run_report


# Failure-path hardening -----------------------------------------------------


def test_failure_names_rank_and_chains_cause():
    def prog(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        comm.allreduce(1, SUM)
        return comm.rank

    with pytest.raises(SpmdError) as exc_info:
        run(4, prog)
    assert exc_info.value.failed_rank == 2
    assert isinstance(exc_info.value.__cause__, ValueError)
    assert "rank 2" in str(exc_info.value)


def test_concurrent_failures_report_lowest_rank_deterministically():
    def prog(comm):
        if comm.rank in (1, 3):
            raise RuntimeError(f"boom {comm.rank}")
        comm.allreduce(1, SUM)
        return comm.rank

    for _ in range(20):
        with pytest.raises(SpmdError) as exc_info:
            run(4, prog)
        assert exc_info.value.failed_rank == 1


def test_mid_collective_failure_unblocks_all_peers():
    # Rank 0 dies between two collectives; every peer must be released
    # (the run terminates) and see the true failed rank.
    def prog(comm):
        comm.allreduce(1, SUM)
        if comm.rank == 0:
            raise RuntimeError("dead")
        comm.allreduce(2, SUM)
        return comm.rank

    with pytest.raises(SpmdError) as exc_info:
        run(5, prog)
    assert exc_info.value.failed_rank == 0


def test_exchange_out_of_range_aborts_cleanly():
    with pytest.raises((ValueError, SpmdError)) as exc_info:
        run(2, lambda c: c.exchange({5: "x"}))
    if isinstance(exc_info.value, SpmdError):
        assert isinstance(exc_info.value.__cause__, ValueError)


def test_combine_failure_surfaces_true_cause():
    # Tuples of different lengths make the SUM combine raise on the wait
    # leader; peers must not report failed_rank=None.
    def prog(comm):
        value = (1, 2) if comm.rank == 0 else (1, 2, 3)
        return comm.allreduce(value, SUM)

    with pytest.raises(SpmdError) as exc_info:
        run(3, prog)
    assert exc_info.value.failed_rank is not None
    cause = exc_info.value.__cause__
    assert isinstance(cause, ValueError)
    assert "unequal length" in str(cause)


# CheckpointStore ------------------------------------------------------------


def test_checkpoint_store_roundtrip_and_none_noop():
    store = MemoryCheckpointStore()
    assert store.load() is None
    store.save(None)
    assert store.saves == 0
    store.save({"state": 1})
    store.save(None)  # non-root ranks pass None
    assert store.load() == {"state": 1}
    assert store.saves == 1
    assert store.octants == 0  # not a forest checkpoint


# Recovering runs (recover=True) ---------------------------------------------


def _counting_work(comm, store, crash_plan=None, until=9):
    """Accumulate allreduces with periodic checkpoints; optionally faulty."""
    if crash_plan is not None:
        comm = FaultyComm(comm, crash_plan)
    state = store.load() or {"i": 0, "acc": 0}
    i, acc = state["i"], state["acc"]
    while i < until:
        acc += comm.allreduce(i, SUM)
        i += 1
        if i % 3 == 0:
            store.save({"i": i, "acc": acc} if comm.rank == 0 else None)
    return acc


def test_resilient_run_without_failures():
    res = run_recovering(3, _counting_work)
    clean = run(3, lambda c: _counting_work(c, MemoryCheckpointStore()))
    assert res.values == clean
    assert res.recovery.attempts == 1
    assert res.recovery.recoveries == 0
    assert res.recovery.ranks_lost == []
    assert res.recovery.wall_seconds_lost == 0.0


def test_resilient_run_recovers_from_checkpoint():
    plan = FaultPlan.crash(rank=2, at_call=7)
    res = run_recovering(
        4,
        _counting_work,
        max_retries=2,
        layers=[Faults(wrapper=lambda c, a: FaultyComm(c, plan) if a == 0 else c)],
    )
    clean = run(4, lambda c: _counting_work(c, MemoryCheckpointStore()))
    assert res.values == clean
    rec = res.recovery
    assert rec.attempts == 2
    assert rec.recoveries == 1
    assert rec.ranks_lost == [2]
    assert rec.checkpoints_used == 1
    assert rec.wall_seconds_lost > 0.0
    assert rec.lost_stats.total_calls > 0  # the lost work is accounted
    assert "ranks lost [2]" in rec.summary()


def test_resilient_run_is_deterministic():
    plan = FaultPlan.crash(rank=1, at_call=5)
    wrapper = lambda c, a: FaultyComm(c, plan) if a == 0 else c  # noqa: E731
    a = run_recovering(3, _counting_work, layers=[Faults(wrapper=wrapper)])
    b = run_recovering(3, _counting_work, layers=[Faults(wrapper=wrapper)])
    assert a.values == b.values
    assert a.recovery.ranks_lost == b.recovery.ranks_lost


def test_resilient_run_shrinks_rank_count():
    plan = FaultPlan.crash(rank=3, at_call=4)
    res = run_recovering(
        4,
        _counting_work,
        shrink_on_failure=True,
        layers=[Faults(wrapper=lambda c, a: FaultyComm(c, plan) if a == 0 else c)],
    )
    assert res.recovery.initial_size == 4
    assert res.recovery.final_size == 3
    assert len(res.values) == 3
    # The per-step allreduce now sums over 3 ranks, so the value differs
    # from a 4-rank run but matches a fault-free 3-rank continuation.
    assert res.values[0] == res.values[1] == res.values[2]


def test_resilient_run_exhausts_retries():
    # A fault that fires on every attempt keeps killing the run.
    plan = FaultPlan.crash(rank=0, at_call=1)
    with pytest.raises(SpmdError) as exc_info:
        run_recovering(
            2,
            _counting_work,
            max_retries=2,
            layers=[Faults(wrapper=lambda c, a: FaultyComm(c, plan))],
        )
    assert exc_info.value.failed_rank == 0


def test_resilient_report_feeds_perf_model():
    from repro.perf import JAGUAR_XT5, comm_cost_from_run

    plan = FaultPlan.crash(rank=1, at_call=6)
    res = run_recovering(
        3,
        _counting_work,
        layers=[Faults(wrapper=lambda c, a: FaultyComm(c, plan) if a == 0 else c)],
    )
    with_recovery = comm_cost_from_run(res.report, recovery=res.recovery)
    without = comm_cost_from_run(res.report)
    P = 1024
    assert with_recovery.modeled_seconds(JAGUAR_XT5, P) > without.modeled_seconds(
        JAGUAR_XT5, P
    )
    assert with_recovery.overhead_seconds == res.recovery.wall_seconds_lost
    # Lost traffic is merged into the modeled structure as well.
    assert with_recovery.allreduces >= without.allreduces


def test_merged_stats_uses_commstats_merge():
    def prog(comm):
        comm.allreduce(1, SUM)
        comm.allgather(comm.rank)
        return None

    report = run_report(3, prog)
    merged = report.merged_stats()
    assert merged.ops["allreduce"].calls == 3
    assert merged.ops["allgather"].calls == 3
    # merge() accumulates counters exactly.
    solo = report.outcomes[0].stats
    twice = type(solo)().merge(solo).merge(solo)
    assert twice.ops["allreduce"].calls == 2 * solo.ops["allreduce"].calls
    assert twice.total_bytes == 2 * solo.total_bytes


def test_summary_names_the_failed_rank_and_cause():
    plan = FaultPlan.crash(rank=1, at_call=3)

    def _work(comm, store):
        total = store.load() or 0
        for i in range(5):
            total += comm.allreduce(1, SUM)
            if comm.rank == 0:
                store.save(total)
        return total

    res = run_recovering(
        2,
        _work,
        max_retries=2,
        layers=[Faults(wrapper=lambda c, a: FaultyComm(c, plan) if a == 0 else c)],
    )
    rec = res.recovery
    assert rec.failures, "every recovery event must leave a failure description"
    assert "rank 1" in rec.failures[-1]
    assert "InjectedFailure" in rec.failures[-1]
    assert "last failure: rank 1" in rec.summary()


def test_failure_description_includes_cause_chain():
    from repro.parallel.run import _failure_description

    try:
        try:
            raise KeyError("root cause")
        except KeyError as inner:
            raise ValueError("wrapper") from inner
    except ValueError as exc:
        text = _failure_description(1, exc)
    assert text.startswith("rank 1: ")
    assert "ValueError('wrapper')" in text
    assert " <- " in text and "KeyError('root cause')" in text
    assert _failure_description(None, None) == "unattributed rank: unknown failure"


# A store that fails in the driver ------------------------------------------


class _FailingStore(MemoryCheckpointStore):
    """Fails its first ``failures`` non-empty saves with ``OSError``.

    ``DiskCheckpointStore.save`` raises the same once its retries are spent.
    """

    def __init__(self, failures):
        super().__init__()
        self.failures = failures

    def save(self, payload):
        if payload is not None and self.failures > 0:
            self.failures -= 1
            raise OSError("checkpoint commit failed")
        super().save(payload)


def _save_then_sum(comm, store):
    store.save({"rank0": True} if comm.rank == 0 else None)
    return comm.allreduce(comm.rank + 1)


def test_store_failure_is_a_rank_failure_and_recovers():
    store = _FailingStore(failures=1)
    res = run_recovering(2, _save_then_sum, store=store, max_retries=1)
    assert res.values == [3, 3]
    assert res.recovery.recoveries == 1
    assert res.recovery.ranks_lost == [0]
    assert store.saves == 1


def test_store_failure_exhausting_retries_leaves_nothing_running():
    with pytest.raises(SpmdError) as exc_info:
        run_recovering(2, _save_then_sum, store=_FailingStore(failures=10**9), max_retries=1)
    assert exc_info.value.failed_rank == 0
    assert isinstance(exc_info.value.__cause__, OSError)
    assert not multiprocessing.active_children()
    assert not glob.glob(f"/dev/shm/repro-{os.getpid()}-*")
