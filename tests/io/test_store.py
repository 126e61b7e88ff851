"""Torn-write and bit-rot tests for the durable checkpoint store.

The property under test is the store's one hard guarantee: a reader
never sees silently wrong data.  Every byte of a committed generation
is covered by a checksum, so flipping or truncating *any* byte must
either fall back to an older intact generation or raise the typed
:class:`~repro.io.checkpoint.CheckpointCorruptError` — these tests walk
corruptions across the payload files at byte-offset strides to check
exactly that, alongside the retention/retry/reuse mechanics.
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.io import CheckpointCorruptError, DiskCheckpointStore
from repro.p4est import builders, checkpoint
from repro.parallel import (
    FaultPlan,
    Faults,
    Machine,
    RunConfig,
    SerialComm,
)
from tests.p4est.test_checkpoint import _adapted_forest, _field_for


def _payload(tag):
    return {"tag": tag, "arr": np.arange(8) * tag}


def _newest_file(store, name):
    return os.path.join(store.root, store.generations()[-1], name)


# Commit mechanics -----------------------------------------------------------


def test_roundtrip_and_generation_ordering(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    assert store.load() is None
    for tag in (1, 2, 3):
        store.save(_payload(tag))
    assert store.generations() == ["gen-000001", "gen-000002", "gen-000003"]
    loaded = store.load()
    assert loaded["tag"] == 3
    np.testing.assert_array_equal(loaded["arr"], np.arange(8) * 3)
    assert store.saves == 3 and store.corrupt_generations_skipped == 0


def test_save_none_is_a_noop(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    store.save(None)
    assert store.generations() == [] and store.saves == 0


def test_retention_is_bounded(tmp_path):
    store = DiskCheckpointStore(tmp_path, keep=2)
    for tag in range(1, 6):
        store.save(_payload(tag))
    assert store.generations() == ["gen-000004", "gen-000005"]
    assert store.load()["tag"] == 5


def test_reuse_across_instances_resumes_numbering(tmp_path):
    DiskCheckpointStore(tmp_path).save(_payload(1))
    again = DiskCheckpointStore(tmp_path)
    assert again.load()["tag"] == 1
    again.save(_payload(2))
    assert again.generations() == ["gen-000001", "gen-000002"]
    assert again.load()["tag"] == 2


def test_stale_staging_dirs_are_ignored_and_collected(tmp_path):
    import time

    store = DiskCheckpointStore(tmp_path)
    # A torn pre-fsync leftover from a long-dead crashed writer...
    stale = tmp_path / ".tmp-gen-000001-99999-0"
    stale.mkdir()
    (stale / "payload.pkl").write_bytes(b"half a write")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    # ... and a *young* staging directory: possibly a concurrent writer
    # mid-commit on this very root, which GC must never touch.
    fresh = tmp_path / ".tmp-gen-000002-88888-0"
    fresh.mkdir()
    assert store.load() is None  # neither is read as a generation
    store.save(_payload(7))
    assert not stale.exists()  # crash leftover GC'd by the commit
    assert fresh.exists()  # in-flight neighbour left alone
    assert store.load()["tag"] == 7


# Namespaces: the multi-tenant isolation boundary ----------------------------


def test_namespaces_have_disjoint_generations(tmp_path):
    a = DiskCheckpointStore(tmp_path, namespace="tenant-a")
    b = DiskCheckpointStore(tmp_path, namespace="tenant-a/session-2")
    c = DiskCheckpointStore(tmp_path, namespace="tenant-b")
    a.save(_payload(1))
    b.save(_payload(2))
    c.save(_payload(3))
    assert a.load()["tag"] == 1
    assert b.load()["tag"] == 2
    assert c.load()["tag"] == 3
    # Each namespace numbers its own generation sequence from 1.
    assert a.generations() == b.generations() == c.generations() == ["gen-000001"]
    # A store over the bare root sees no generations at all.
    assert DiskCheckpointStore(tmp_path).load() is None


def test_namespace_retention_gc_cannot_cross_tenants(tmp_path):
    # The bug this guards against: two sessions sharing one root, where
    # one tenant's keep-bound GC collects the other tenant's checkpoints.
    a = DiskCheckpointStore(tmp_path, namespace="tenant-a", keep=1)
    b = DiskCheckpointStore(tmp_path, namespace="tenant-b", keep=1)
    b.save(_payload(100))
    for tag in range(1, 8):
        a.save(_payload(tag))  # churns tenant-a's retention GC 7 times
    assert a.generations() == ["gen-000007"]
    assert b.generations() == ["gen-000001"]  # untouched by a's GC
    assert b.load()["tag"] == 100


def test_namespace_reuse_across_instances(tmp_path):
    DiskCheckpointStore(tmp_path, namespace="t/s").save(_payload(4))
    again = DiskCheckpointStore(tmp_path, namespace="t/s")
    assert again.load()["tag"] == 4
    again.save(_payload(5))
    assert again.generations() == ["gen-000001", "gen-000002"]


@pytest.mark.parametrize(
    "bad", ["", "/", "a//b", "..", "a/../b", ".", "gen-000001", "a/.tmp-x"]
)
def test_namespace_validation(tmp_path, bad):
    with pytest.raises(ValueError):
        DiskCheckpointStore(tmp_path, namespace=bad)


def test_concurrent_writers_never_corrupt_each_other(tmp_path):
    # Property test: many threads hammering the same root — one pair
    # deliberately sharing a namespace, the rest namespaced apart — must
    # always leave every surviving generation intact and every load()
    # returning some fully-committed payload, never a torn or mixed one.
    import threading

    root = tmp_path / "shared"
    errors = []
    per_writer = 12

    def writer(widx, namespace):
        store = DiskCheckpointStore(
            root, namespace=namespace, keep=2, retries=8, backoff=0.001
        )
        try:
            for i in range(per_writer):
                store.save(_payload(widx * 1000 + i))
                loaded = store.load()
                tag = loaded["tag"]
                np.testing.assert_array_equal(loaded["arr"], np.arange(8) * tag)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append((widx, exc))

    threads = [
        threading.Thread(target=writer, args=(0, "contended")),
        threading.Thread(target=writer, args=(1, "contended")),
        threading.Thread(target=writer, args=(2, "tenant-x")),
        threading.Thread(target=writer, args=(3, "tenant-y")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    # Isolated namespaces saw only their own writer: newest tag is theirs.
    for widx, namespace in ((2, "tenant-x"), (3, "tenant-y")):
        final = DiskCheckpointStore(root, namespace=namespace)
        assert final.load()["tag"] == widx * 1000 + per_writer - 1
    # The contended namespace interleaved two writers, but every retained
    # generation is a complete committed payload from one of them.
    contended = DiskCheckpointStore(root, namespace="contended")
    for name in contended.generations():
        blob = contended._read_generation(name)
        assert blob["tag"] in {i for i in range(per_writer)} | {
            1000 + i for i in range(per_writer)
        }
        np.testing.assert_array_equal(blob["arr"], np.arange(8) * blob["tag"])
    assert contended.corrupt_generations_skipped == 0


# Forest payloads ------------------------------------------------------------


def test_forest_checkpoint_payload_and_octants(tmp_path):
    comm = SerialComm()
    conn = builders.brick_2d(2, 2)
    forest = _adapted_forest(comm, conn)
    ckpt = checkpoint.save(forest, fields={"q": _field_for(forest)}, meta={"step": 4})
    store = DiskCheckpointStore(tmp_path)
    assert store.octants == 0
    store.save(ckpt)
    assert store.octants == forest.global_count
    loaded = store.load()
    assert np.array_equal(loaded.wire, ckpt.wire)
    assert loaded.meta == {"step": 4}
    forest2, fields2, _ = checkpoint.restore(conn, comm, loaded)
    assert forest2.checksum() == forest.checksum()
    np.testing.assert_array_equal(fields2["q"], _field_for(forest))


# Bit rot and truncation at byte-offset strides ------------------------------


def _every_offset(size, stride=7):
    # Cover both ends exactly, stride through the middle.
    return sorted({0, 1, size // 2, size - 2, size - 1} | set(range(0, size, stride)))


@pytest.mark.parametrize("victim", ["payload.pkl", "meta.json"])
def test_bit_rot_at_any_offset_falls_back_not_lies(tmp_path, victim):
    store = DiskCheckpointStore(tmp_path)
    store.save(_payload(1))  # the intact fallback generation
    store.save(_payload(2))  # the generation we are about to rot
    path = _newest_file(store, victim)
    pristine = Path(path).read_bytes()
    for offset in _every_offset(len(pristine)):
        rotted = bytearray(pristine)
        rotted[offset] ^= 0xFF
        with open(path, "wb") as f:
            f.write(rotted)
        loaded = store.load()
        # Either the flip is caught (fall back to generation 1) or — never —
        # silently wrong data.  There is no benign byte in these files.
        assert loaded["tag"] == 1, f"silent corruption at byte {offset} of {victim}"
    with open(path, "wb") as f:
        f.write(pristine)
    assert store.load()["tag"] == 2
    assert store.corrupt_generations_skipped > 0


def test_truncation_at_any_offset_falls_back_not_lies(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    store.save(_payload(1))
    store.save(_payload(2))
    path = _newest_file(store, "payload.pkl")
    pristine = Path(path).read_bytes()
    for cut in _every_offset(len(pristine)):
        with open(path, "wb") as f:
            f.write(pristine[:cut])
        assert store.load()["tag"] == 1, f"silent corruption truncating at {cut}"
    with open(path, "wb") as f:
        f.write(pristine)
    assert store.load()["tag"] == 2


def test_forest_generation_bit_rot_falls_back(tmp_path):
    comm = SerialComm()
    forest = _adapted_forest(comm, builders.brick_2d(2, 2))
    store = DiskCheckpointStore(tmp_path)
    store.save(_payload(1))
    ckpt = checkpoint.save(forest)
    store.save(ckpt)
    path = _newest_file(store, "forest.npz")
    pristine = Path(path).read_bytes()
    for offset in _every_offset(len(pristine), stride=31):
        rotted = bytearray(pristine)
        rotted[offset] ^= 0xFF
        with open(path, "wb") as f:
            f.write(rotted)
        loaded = store.load()
        if isinstance(loaded, dict):
            assert loaded["tag"] == 1  # fell back past the rotted forest
        else:
            # The flip hit a spot the zip container tolerates (e.g. slack
            # in a local header): the CRCs must still prove the *data* is
            # bit-identical, which is the actual guarantee.
            assert np.array_equal(loaded.wire, ckpt.wire)


def test_all_generations_corrupt_raises_typed_error(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    store.save(_payload(1))
    store.save(_payload(2))
    for name in store.generations():
        with open(os.path.join(store.root, name, "payload.pkl"), "wb") as f:
            f.write(b"rotten")
    with pytest.raises(CheckpointCorruptError, match="all 2 generations") as ei:
        store.load()
    assert isinstance(ei.value.__cause__, CheckpointCorruptError)


def test_missing_payload_and_unknown_kind_are_corrupt(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    comm = SerialComm()
    store.save(checkpoint.save(_adapted_forest(comm, builders.brick_2d(2, 2))))
    os.remove(_newest_file(store, "forest.npz"))
    with pytest.raises(CheckpointCorruptError):
        store.load()
    meta = _newest_file(store, "meta.json")
    with open(meta, "w") as f:
        f.write('{"kind": "hologram", "octants": 0}')
    with pytest.raises(CheckpointCorruptError) as ei:
        store.load()
    assert "unknown payload kind" in str(ei.value.__cause__)


def test_swapped_payload_with_valid_framing_is_not_trusted(tmp_path):
    # An attacker-free but nasty case: a framing-valid pickle from one
    # generation copied over another.  The CRC covers the blob, so the
    # swap is *consistent* — load() returns it, which is fine: the frame
    # guarantees integrity of a committed write, not provenance.  What
    # must never happen is a CRC pass on a *mutated* blob.
    blob = pickle.dumps({"tag": 9}, pickle.HIGHEST_PROTOCOL)
    import zlib

    crc = zlib.crc32(blob) & 0xFFFFFFFF
    store = DiskCheckpointStore(tmp_path)
    store.save(_payload(1))
    with open(_newest_file(store, "payload.pkl"), "wb") as f:
        f.write(b"RPCK1\n" + crc.to_bytes(4, "big") + len(blob).to_bytes(8, "big") + blob)
    assert store.load() == {"tag": 9}


# Transient I/O failure ------------------------------------------------------


def test_transient_oserror_is_retried_with_backoff(tmp_path, monkeypatch):
    sleeps = []
    store = DiskCheckpointStore(
        tmp_path, retries=3, backoff=0.01, _sleep=sleeps.append
    )
    real_replace = os.replace
    failures = {"left": 2}

    def flaky_replace(src, dst):
        if failures["left"] > 0 and os.path.basename(dst).startswith("gen-"):
            failures["left"] -= 1
            raise OSError("EIO: injected")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    store.save(_payload(5))
    assert store.io_retries == 2
    assert sleeps == [0.01, 0.02]  # exponential backoff
    assert store.load()["tag"] == 5


def test_persistent_oserror_surfaces_and_leaves_previous_intact(
    tmp_path, monkeypatch
):
    store = DiskCheckpointStore(tmp_path, retries=1, backoff=0.0, _sleep=lambda s: None)
    store.save(_payload(1))

    def broken_replace(src, dst):
        raise OSError("ENOSPC: injected")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="ENOSPC"):
        store.save(_payload(2))
    monkeypatch.undo()
    # The failed commit left no half-generation and no staging litter.
    assert store.generations() == ["gen-000001"]
    assert not [n for n in os.listdir(store.root) if n.startswith(".tmp-")]
    assert store.load()["tag"] == 1


# Integration with a recovering run ------------------------------------------


def _ckpt_program(comm, store):
    ck = store.load()
    start = ck["i"] if ck else 0
    total = ck["acc"] if ck else 0
    for i in range(start, 6):
        total += comm.allreduce(i + comm.rank)
        if comm.rank == 0:
            store.save({"i": i + 1, "acc": total})
    return total


def test_recovering_run_restarts_from_disk(tmp_path):
    baseline = Machine(RunConfig(size=2, backend="thread")).run(
        _ckpt_program, store=DiskCheckpointStore(tmp_path / "base")
    )
    store = DiskCheckpointStore(tmp_path / "faulty", keep=3)
    cfg = RunConfig(
        size=2,
        backend="thread",
        recover=True,
        max_retries=2,
        store=store,
        layers=[Faults(plan=FaultPlan.crash(1, 4))],
    )
    result = Machine(cfg).run(_ckpt_program)
    assert result.values == baseline.values
    assert result.recovery.recoveries == 1
    assert result.recovery.checkpoints_used >= 1
    assert store.generations()  # the checkpoints are really on disk
    # A later, separate "job" resumes from the same root and is a no-op
    # continuation: everything was already done.
    rerun = Machine(RunConfig(size=2, backend="thread")).run(
        _ckpt_program, store=DiskCheckpointStore(tmp_path / "faulty")
    )
    assert rerun.values == baseline.values
