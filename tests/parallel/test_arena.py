"""The process backend's shared-memory arenas (:mod:`repro.parallel.shm`).

Every ndarray a rank contributes rides one of its two long-lived arenas
(one per round parity); the router forwards descriptors, and each rank
copies out only what it receives.  These tests pin the properties that
make that safe and cheap: growth keeps every payload intact on both
parities, a slow reader never sees the next round, nested payload shapes
travel as refs, arenas survive warm-pool jobs and replacements, the
parent sweeps every arena by name, and the bytes a rank copies out equal
the bytes the frontend meters for it.

Process runs use ``fork`` so the programs (and the monkeypatches) reach
the workers.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.parallel import Machine, MemoryCheckpointStore, RunConfig, SpmdError
from repro.parallel.ops import payload_nbytes
from repro.parallel.shm import Arenas, ShmRef, arena_prefix, sweep

KIB = 128  # float64 count of 1 KiB
#: Interleaved 8 B / 4 MiB / 1 KiB payloads (float64 counts).
GROWTH_SIZES = [1, 4096 * KIB, KIB, 1, 4096 * KIB, KIB, 4096 * KIB, 1]


def _pconfig(size, **kwargs):
    kwargs.setdefault("start_method", "fork")
    kwargs.setdefault("timeout", 60.0)
    return RunConfig(size=size, backend="process", **kwargs)


def _ours():
    """This test process's arenas currently in /dev/shm."""
    return set(glob.glob(f"/dev/shm/repro-{os.getpid()}-*"))


def _worker_arenas(comm):
    """Names of the calling worker's own arenas."""
    return sorted(os.path.basename(p) for p in glob.glob(f"/dev/shm/{comm._arenas.prefix}*"))


# In-process ---------------------------------------------------------------


def test_nested_partition_shape_travels_as_refs():
    # Partition ships (octants, [fields]) per destination.
    octs = np.arange(40, dtype=np.int64).reshape(8, 5)
    fields = [np.linspace(0.0, 1.0, 8), np.ones((8, 3), dtype=np.float32)]
    writer = Arenas(arena_prefix(os.getpid(), 1))
    reader = Arenas(arena_prefix(os.getpid(), 2))
    try:
        name, wired = writer.wire({1: (octs, fields), 2: "tag"})
        assert name is not None and name.startswith(writer.prefix)
        assert isinstance(wired[1][0], ShmRef)
        assert all(isinstance(ref, ShmRef) for ref in wired[1][1])
        assert wired[2] == "tag"
        back = reader.unwire(name, wired[1])
        np.testing.assert_array_equal(back[0], octs)
        for got, want in zip(back[1], fields):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert reader.moved == octs.nbytes + sum(f.nbytes for f in fields)
    finally:
        sweep([writer.prefix])
    assert not glob.glob(f"/dev/shm/{writer.prefix}*")


def test_payload_without_arrays_skips_the_arena():
    arenas = Arenas(arena_prefix(os.getpid(), 3))
    payload = {0: [1, 2.5, "x"], 1: np.zeros(0)}
    assert arenas.wire(payload) == (None, payload)
    assert arenas.unwire(None, payload) is payload
    assert not glob.glob(f"/dev/shm/{arenas.prefix}*")


# Growth and parity ----------------------------------------------------------


def _growth_prog(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    bad = 0
    for i, n in enumerate(GROWTH_SIZES):
        got = comm.exchange({nxt: np.full(n, 100.0 * comm.rank + i)})[prv]
        bad += int(got.shape != (n,) or not np.all(got == 100.0 * prv + i))
        rows = comm.allgather(np.full(n, float(comm.rank)))
        bad += sum(int(not np.all(row == q)) for q, row in enumerate(rows))
    sizes = [shm.size for shm in comm._arenas._out]
    return bad, sizes, comm._arenas._growth, _worker_arenas(comm)


def test_growth_across_both_parities_keeps_every_payload():
    for bad, sizes, growth, names in Machine(_pconfig(3)).run(_growth_prog).values:
        assert bad == 0
        assert min(sizes) >= 4 << 20  # both parities grew to the 4 MiB payload
        assert growth >= 3
        assert len(names) == 2  # every outgrown arena was unlinked
    assert not _ours()


_SLOW = {"reader": False}


def _slow_prog(comm):
    _SLOW["reader"] = comm.rank != 0
    bad = 0
    for i in range(6):
        got = comm.bcast(np.full(64 * KIB, float(i)) if comm.rank == 0 else None)
        bad += int(not np.all(got == i))
    return bad


def test_a_slow_reader_never_sees_the_next_round(monkeypatch):
    # Rank 0 (the root) copies nothing and races ahead into the next
    # round while every other rank dawdles before its copy-out: the
    # parity arenas must keep round k intact until all peers are done.
    unwire = Arenas.unwire

    def slow_unwire(self, name, obj):
        if name is not None and _SLOW["reader"]:
            time.sleep(0.02)
        return unwire(self, name, obj)

    monkeypatch.setattr(Arenas, "unwire", slow_unwire)
    assert Machine(_pconfig(3)).run(_slow_prog).values == [0, 0, 0]


# Payload kinds --------------------------------------------------------------


def _kinds_payload(rank):
    return (
        np.array(["a", "bc", str(rank)]),
        np.array([{"k": rank}, None], dtype=object),
        np.zeros((0, 3)),
        np.zeros(0, dtype=np.int32),
        np.arange(12, dtype=">f8").reshape(3, 4)[:, ::2],
        np.asfortranarray(np.arange(6, dtype=np.complex128).reshape(2, 3)),
        np.array([True, False, bool(rank)]),
        "text",
        7,
    )


def _kinds_prog(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    got = comm.exchange({nxt: _kinds_payload(comm.rank)})[prv]
    want = _kinds_payload(prv)
    bad = int(len(got) != len(want))
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            bad += int(g.dtype != w.dtype or g.shape != w.shape or not np.array_equal(g, w))
        else:
            bad += int(g != w)
    return bad


def test_object_str_and_zero_size_arrays_arrive_intact():
    assert Machine(_pconfig(2)).run(_kinds_prog).values == [0, 0]


# Lifetime: warm pool, replacement, sweeps -----------------------------------


def _names_prog(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    got = comm.exchange({nxt: np.full(8 * KIB, float(comm.rank))})[prv]
    assert np.all(got == prv)
    return os.getpid(), _worker_arenas(comm)


def test_arenas_are_reused_across_warm_pool_jobs():
    with Machine(_pconfig(2, warm_pool=True)) as machine:
        # The parity runs on across jobs: job 1 fills one arena, job 2
        # the other, and job 3 reuses both without growing either.
        runs = [machine.run(_names_prog).values for _ in range(3)]
        for first, second, third in zip(*runs):
            assert first[0] == second[0] == third[0]  # the same worker
            assert set(first[1]) < set(second[1])
            assert second[1] == third[1] and len(third[1]) == 2
        assert _ours()
    assert not _ours()


def _replaced_prog(comm, store):
    first = comm.bcast(store.load() is None)
    if comm.rank == 0:
        store.save("started")
    total = 0.0
    for i in range(4):
        rows = comm.allgather(np.full(8 * KIB, float(comm.rank + i)))
        total += float(sum(row[0] for row in rows))
        if first and i == 2 and comm.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
    return total


def test_arenas_work_after_a_warm_replacement():
    cfg = _pconfig(2, warm_pool=True, max_replacements=1)
    with Machine(cfg) as machine:
        res = machine.run(_replaced_prog, store=MemoryCheckpointStore())
        assert res.values == [16.0, 16.0]
        assert res.recovery.replacements == 1
        # The pool holds the replacement: its arenas are live, the dead
        # worker's are already gone.
        pids = {proc.pid for _, _, proc in machine.backend._pool[1]}
        owners = {int(os.path.basename(p).split("-")[2]) for p in _ours()}
        assert owners and owners <= pids
        again = machine.run(_replaced_prog, store=MemoryCheckpointStore())
        assert again.values == [16.0, 16.0]
    assert not _ours()


_KILL = {"after_grow": False}


def _kill_after_grow(monkeypatch):
    reserve = Arenas._reserve

    def reserve_then_die(self, nbytes):
        shm = reserve(self, nbytes)
        if _KILL["after_grow"]:
            os.kill(os.getpid(), signal.SIGKILL)  # the put naming it never leaves
        return shm

    monkeypatch.setattr(Arenas, "_reserve", reserve_then_die)


def _grow_and_die_prog(comm, store=None):
    first = store is None or comm.bcast(store.load() is None)
    if store is not None and comm.rank == 0:
        store.save("started")
    for _ in range(2):
        comm.allgather(np.ones(KIB))  # both parities hold a small arena now
    _KILL["after_grow"] = first and comm.rank == 1
    rows = comm.allgather(np.ones(256 * KIB))  # 2 MiB: rank 1 grows, then dies
    return float(sum(row.sum() for row in rows))


def test_worker_killed_after_growing_strands_nothing(monkeypatch):
    _kill_after_grow(monkeypatch)
    with pytest.raises(SpmdError) as ei:
        Machine(_pconfig(2, timeout=20.0)).run(_grow_and_die_prog)
    assert ei.value.failed_rank == 1
    assert not _ours()


def test_replaced_worker_killed_after_growing_strands_nothing(monkeypatch):
    _kill_after_grow(monkeypatch)
    cfg = _pconfig(2, warm_pool=True, max_replacements=1, timeout=20.0)
    with Machine(cfg) as machine:
        res = machine.run(_grow_and_die_prog, store=MemoryCheckpointStore())
        assert res.values == [2 * 256 * KIB] * 2
        pids = {proc.pid for _, _, proc in machine.backend._pool[1]}
        assert {int(os.path.basename(p).split("-")[2]) for p in _ours()} <= pids
    assert not _ours()


# Moved equals metered -------------------------------------------------------


def _item(src, dst):
    return np.full(16 * (1 + src + 3 * dst), float(src))


def _moved_prog(comm, op):
    P, r = comm.size, comm.rank
    quiet = P - 1  # this rank's outbox is empty
    before = comm._arenas.moved
    if op == "exchange":
        outbox = {} if r == quiet else {d: _item(r, d) for d in range(P)}  # self too
        inbox = comm.exchange(outbox)
    elif op == "alltoall":
        objs = [None if r == quiet else _item(r, d) for d in range(P)]
        inbox = dict(enumerate(comm.alltoall(objs)))
    else:
        objs = [_item(0, d) for d in range(P)] if r == 0 else None
        inbox = {0: comm.scatter(objs, root=0)}
    received = sum(payload_nbytes(v) for src, v in inbox.items() if src != r)
    return comm._arenas.moved - before, received, comm.stats.ops[op].bytes_sent


@pytest.mark.parametrize("op", ["exchange", "alltoall", "scatter"])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_moved_equals_metered(op, size):
    values = Machine(_pconfig(size)).run(_moved_prog, op).values
    for moved, received, _ in values:
        assert moved == received
    assert sum(m for m, _, _ in values) == sum(sent for _, _, sent in values) > 0
