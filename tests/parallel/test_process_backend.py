"""Process-backend specifics: spawn, real SIGKILL, shm hygiene.

Everything here exercises behaviour only OS processes can have — workers
that genuinely die (``SIGKILL``), payloads crossing a pickle boundary,
the ``spawn`` start method, and ``/dev/shm`` segment accounting.  The
behaviour shared with the thread backend is covered by the common suite
(run with ``REPRO_TEST_BACKEND=process``) and by
``test_backend_parity.py``.
"""

import glob
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.parallel import (
    CollectiveMismatchError,
    FaultPlan,
    Faults,
    FaultyComm,
    HangWatchdog,
    Machine,
    MemoryCheckpointStore,
    RunConfig,
    Sanitize,
    SpmdError,
    Watchdog,
)


def _pconfig(size, **kwargs):
    kwargs.setdefault("start_method", "fork")
    return RunConfig(size=size, backend="process", **kwargs)


def _shm_segments():
    return set(glob.glob("/dev/shm/repro-*"))


def test_arena_names_match_the_leak_glob():
    # Positive control: the hygiene tests below compare _shm_segments()
    # before and after a run, which proves nothing unless a live arena
    # actually matches the glob.
    def prog(comm):
        comm.allgather(np.full(8, float(comm.rank)))
        return len(_shm_segments())

    with Machine(_pconfig(2, warm_pool=True)) as machine:
        assert min(machine.run(prog).values) >= 2
        assert len(_shm_segments()) >= 2  # parked workers keep their arenas
    assert not [s for s in _shm_segments() if f"repro-{os.getpid()}-" in s]


# Spawn start method ---------------------------------------------------------


def _sum_ranks(comm):
    """Module-level so it survives the spawn pickle round-trip."""
    return comm.allreduce(1)


def test_spawn_start_method_smoke():
    cfg = RunConfig(size=2, backend="process", start_method="spawn", timeout=120.0)
    assert Machine(cfg).run(_sum_ranks).values == [2, 2]


# Worker death ---------------------------------------------------------------


def test_dead_worker_is_named_in_the_error():
    def prog(comm):
        comm.barrier()
        if comm.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.2)
        return comm.allreduce(1)

    with pytest.raises(SpmdError) as ei:
        Machine(_pconfig(3, timeout=30.0)).run(prog)
    assert ei.value.failed_rank == 1
    assert "died mid-run" in str(ei.value.__cause__)


def test_recovers_from_sigkilled_worker(tmp_path):
    wd = HangWatchdog(timeout=10.0, artifact_dir=str(tmp_path))

    def prog(comm, store):
        first = comm.bcast(store.load() is None, root=0)
        store.save("attempted" if comm.rank == 0 else None)
        total = 0
        for i in range(5):
            total += comm.allreduce(1)
            if first and i == 2 and comm.rank == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return total

    cfg = _pconfig(3, recover=True, max_retries=2, layers=[Watchdog(wd)])
    result = Machine(cfg).run(prog)
    assert result.values == [15, 15, 15]
    assert result.recovery.recoveries == 1
    assert result.recovery.ranks_lost == [2]
    assert len(result.recovery.artifacts) == 1
    with open(result.recovery.artifacts[0]) as f:
        assert json.load(f)["reason"] == "spmd-error"


# Cross-process layers -------------------------------------------------------


def test_sanitizer_catches_divergence_across_processes():
    def prog(comm):
        if comm.rank == 1:
            comm.allreduce(np.zeros(4))
        else:
            comm.allreduce(np.zeros(5))
        return "unreachable"

    cfg = _pconfig(2, layers=[Sanitize()], timeout=30.0)
    with pytest.raises(SpmdError) as ei:
        Machine(cfg).run(prog)
    assert isinstance(ei.value.__cause__, CollectiveMismatchError)


# Shared-memory hygiene ------------------------------------------------------


def test_shm_roundtrip_and_no_leaked_segments():
    before = _shm_segments()

    def prog(comm):
        arr = np.full(16384, float(comm.rank))
        rows = comm.allgather(arr)
        for r, row in enumerate(rows):
            assert row.shape == (16384,) and float(row[0]) == float(r)
        return float(sum(r.sum() for r in rows))

    cfg = _pconfig(3)
    machine = Machine(cfg)
    for _ in range(2):
        assert machine.run(prog).values == [3 * 16384.0] * 3
    assert _shm_segments() == before


def test_shm_segments_freed_after_worker_death():
    before = _shm_segments()

    def prog(comm):
        arr = np.zeros(16384) + comm.rank
        comm.allgather(arr)
        if comm.rank == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        comm.allgather(arr)
        return True

    with pytest.raises(SpmdError):
        Machine(_pconfig(2, timeout=30.0)).run(prog)
    assert _shm_segments() == before


# Warm rank replacement ------------------------------------------------------


def _ckpt_program(comm, store):
    """Checkpointed loop every replacement test replays (bit-exact target)."""
    ck = store.load()
    start = ck["i"] if ck else 0
    total = ck["acc"] if ck else 0
    for i in range(start, 6):
        # An ndarray, so the rounds ride the shared-memory arenas.
        total += int(comm.allreduce(np.array([i + comm.rank]))[0])
        if comm.rank == 0:
            store.save({"i": i + 1, "acc": total})
    return total


def _baseline_values():
    return Machine(RunConfig(size=2, backend="thread")).run(
        _ckpt_program, store=MemoryCheckpointStore()
    ).values


def _die_on_attempt(schedule):
    """Kill ``schedule[attempt]`` = (rank, at_call) once per generation."""

    def wrapper(comm, attempt):
        if attempt in schedule:
            rank, at_call = schedule[attempt]
            return FaultyComm(comm, FaultPlan.die(rank, at_call))
        return comm

    return wrapper


def test_warm_replacement_recovers_in_place(tmp_path):
    before = _shm_segments()
    wd = HangWatchdog(timeout=20.0, artifact_dir=str(tmp_path))
    cfg = _pconfig(
        2,
        max_replacements=2,
        timeout=20.0,
        layers=[Faults(wrapper=_die_on_attempt({0: (1, 3)})), Sanitize(), Watchdog(wd)],
    )
    res = Machine(cfg).run(_ckpt_program, store=MemoryCheckpointStore())
    assert res.values == _baseline_values()
    rec = res.recovery
    assert rec is not None
    assert rec.replacements == 1 and rec.recoveries == 0
    assert rec.replaced_ranks == [1]
    assert rec.final_size == rec.initial_size == 2
    assert rec.replacement_seconds > 0
    assert "replaced in place" in rec.summary()
    assert _shm_segments() == before
    # The watchdog dumped a flight-recorder artifact for the replacement.
    dumps = [a for a in rec.artifacts if os.path.exists(a)]
    assert dumps
    with open(dumps[0]) as f:
        payload = json.load(f)
    assert payload["reason"] == "replacement"
    assert payload["dead_ranks"] == [1]
    assert payload["rollback_generation"] == 1


def test_nested_rollbacks_within_one_attempt():
    # Rank 1 dies in generation 0; its replacement machine then loses
    # rank 0 in generation 1.  Both are replaced in place, no teardown.
    cfg = _pconfig(
        2,
        max_replacements=2,
        timeout=20.0,
        layers=[
            Faults(wrapper=_die_on_attempt({0: (1, 3), 1: (0, 1)})),
            Sanitize(),
            Watchdog(timeout=20.0),
        ],
    )
    res = Machine(cfg).run(_ckpt_program, store=MemoryCheckpointStore())
    assert res.values == _baseline_values()
    assert res.recovery.replacements == 2
    assert sorted(res.recovery.replaced_ranks) == [0, 1]
    assert res.recovery.recoveries == 0


def test_death_without_budget_falls_back_to_recover_loop():
    cfg = _pconfig(
        2,
        recover=True,
        max_retries=2,
        timeout=20.0,
        layers=[Faults(wrapper=_die_on_attempt({0: (1, 2)})), Watchdog(timeout=20.0)],
    )
    res = Machine(cfg).run(_ckpt_program)
    assert res.values == _baseline_values()
    rec = res.recovery
    assert rec.replacements == 0
    assert rec.recoveries == 1 and rec.full_retries == 1
    assert rec.ranks_lost == [1]


def test_replacement_budget_exhaustion_falls_back():
    # Budget of 1 per attempt: the first death is replaced, the second
    # aborts the attempt; the recover loop retries, and the retry (a
    # fresh attempt with a fresh budget) replaces its own death again.
    cfg = _pconfig(
        2,
        recover=True,
        max_retries=2,
        max_replacements=1,
        timeout=20.0,
        layers=[
            Faults(wrapper=_die_on_attempt({0: (1, 3), 1: (0, 1)})),
            Watchdog(timeout=20.0),
        ],
    )
    res = Machine(cfg).run(_ckpt_program, store=MemoryCheckpointStore())
    assert res.values == _baseline_values()
    assert res.recovery.replacements == 2
    assert res.recovery.recoveries == 1


def test_replacement_shm_hygiene_with_large_payloads():
    before = _shm_segments()

    def prog(comm, store):
        first = comm.bcast(store.load() is None, root=0)
        if comm.rank == 0:
            store.save("started")
        arr = np.full(16384, float(comm.rank))
        for i in range(4):
            rows = comm.allgather(arr)  # rides the shared-memory arenas
            if first and i == 2 and comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
        return float(sum(r.sum() for r in rows))

    cfg = _pconfig(2, max_replacements=1, timeout=20.0)
    res = Machine(cfg).run(prog, store=MemoryCheckpointStore())
    assert res.values == [16384.0, 16384.0]
    assert res.recovery.replacements == 1
    assert _shm_segments() == before


def test_cause_chain_survives_the_process_boundary():
    def prog(comm):
        comm.barrier()
        if comm.rank == 1:
            try:
                raise KeyError("inner detail")
            except KeyError as exc:
                raise ValueError("outer failure") from exc
        comm.barrier()
        return True

    with pytest.raises(SpmdError) as ei:
        Machine(_pconfig(2, timeout=30.0)).run(prog)
    assert ei.value.failed_rank == 1
    cause = ei.value.__cause__
    assert isinstance(cause, ValueError) and "outer failure" in str(cause)
    assert isinstance(cause.__cause__, KeyError)
