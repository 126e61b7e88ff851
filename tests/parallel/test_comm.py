"""Tests for the SPMD substrate: collectives, exchange, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    MAX,
    MIN,
    SUM,
    SerialComm,
    SpmdError,
    payload_nbytes,
)
from repro.parallel.ops import LAND, LOR, PROD, identity_for
from tests.parallel.helpers import run, run_report

SIZES = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("size", SIZES)
def test_rank_and_size(size):
    out = run(size, lambda c: (c.rank, c.size))
    assert out == [(r, size) for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    assert run(size, lambda c: (c.barrier(), c.rank)[1]) == list(range(size))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, -1])
def test_bcast(size, root):
    root = root % size

    def prog(c):
        return c.bcast({"v": c.rank * 10} if c.rank == root else None, root=root)

    assert run(size, prog) == [{"v": root * 10}] * size


@pytest.mark.parametrize("size", SIZES)
def test_gather_scatter_roundtrip(size):
    def prog(c):
        gathered = c.gather(c.rank**2, root=0)
        if c.rank == 0:
            assert gathered == [r**2 for r in range(size)]
        else:
            assert gathered is None
        return c.scatter([v + 1 for v in gathered] if c.rank == 0 else None, root=0)

    assert run(size, prog) == [r**2 + 1 for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    out = run(size, lambda c: c.allgather(c.rank + 1))
    for result in out:
        assert result == [r + 1 for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_sum_min_max(size):
    def prog(c):
        return (
            c.allreduce(c.rank, SUM),
            c.allreduce(c.rank, MIN),
            c.allreduce(c.rank, MAX),
        )

    expect = (size * (size - 1) // 2, 0, size - 1)
    assert run(size, prog) == [expect] * size


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_numpy_elementwise(size):
    def prog(c):
        v = np.array([c.rank, -c.rank, 1.0])
        return c.allreduce(v, SUM)

    for result in run(size, prog):
        np.testing.assert_allclose(
            result, [size * (size - 1) / 2, -size * (size - 1) / 2, size]
        )


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_tuple(size):
    def prog(c):
        return c.allreduce((1, c.rank), SUM)

    assert run(size, prog) == [(size, size * (size - 1) // 2)] * size


@pytest.mark.parametrize("size", SIZES)
def test_exscan_and_scan(size):
    def prog(c):
        return c.exscan(c.rank + 1, SUM), c.scan(c.rank + 1, SUM)

    out = run(size, prog)
    for r, (ex, inc) in enumerate(out):
        assert ex == r * (r + 1) // 2
        assert inc == (r + 1) * (r + 2) // 2


@pytest.mark.parametrize("size", SIZES)
def test_alltoall(size):
    def prog(c):
        received = c.alltoall([c.rank * 100 + dest for dest in range(size)])
        assert received == [src * 100 + c.rank for src in range(size)]
        return True

    assert all(run(size, prog))


@pytest.mark.parametrize("size", SIZES)
def test_exchange_ring(size):
    def prog(c):
        right = (c.rank + 1) % size
        inbox = c.exchange({right: ("hi", c.rank)})
        left = (c.rank - 1) % size
        assert inbox == {left: ("hi", left)}
        return True

    assert all(run(size, prog))


@pytest.mark.parametrize("size", SIZES)
def test_exchange_sparse_and_self(size):
    def prog(c):
        outbox = {c.rank: "self"}
        if c.rank == 0 and size > 1:
            outbox[size - 1] = "zero-to-last"
        inbox = c.exchange(outbox)
        assert inbox[c.rank] == "self"
        if c.rank == size - 1 and size > 1:
            assert inbox[0] == "zero-to-last"
        return sorted(inbox)

    out = run(size, prog)
    assert out[0] == [0]


def test_exchange_empty_outbox():
    out = run(4, lambda c: c.exchange({}))
    assert out == [{}] * 4


def test_exception_propagates_and_unblocks():
    def prog(c):
        if c.rank == 2:
            raise ValueError("boom on rank 2")
        # Peers block in a collective; the abort must release them.
        c.allreduce(1)
        return c.rank

    with pytest.raises((ValueError, SpmdError)):
        run(4, prog)


def test_exchange_bad_destination():
    with pytest.raises((ValueError, SpmdError)):
        run(2, lambda c: c.exchange({5: "x"}))


def test_stats_metering():
    def prog(c):
        c.allgather(np.zeros(10, dtype=np.float64))
        c.exchange({(c.rank + 1) % c.size: b"abcd"})
        return None

    report = run_report(4, prog)
    for outcome in report.outcomes:
        assert outcome.stats.ops["allgather"].calls == 1
        assert outcome.stats.ops["allgather"].bytes_sent == 80
        assert outcome.stats.ops["exchange"].messages == 1
        assert outcome.stats.ops["exchange"].bytes_sent == 4
    merged = report.merged_stats()
    assert merged.ops["exchange"].messages == 4


@pytest.mark.parametrize("size", [1, 2, 3])
def test_prefix_collectives_meter_a_chain(size):
    """``scan``/``exscan``: rank r sends one message, its payload's bytes,
    to rank r + 1; the last rank (and a size-1 comm) sends nothing."""

    def prog(c):
        c.exscan(np.zeros(3), SUM)
        c.scan(np.zeros(5), SUM)
        c.scan(np.zeros(5), SUM)

    report = run_report(size, prog)
    for r, outcome in enumerate(report.outcomes):
        sends = r < size - 1
        counters = _counters(outcome.stats)
        assert counters["exscan"] == (1, int(sends), 24 * sends)
        assert counters["scan"] == (2, 2 * sends, 80 * sends)


def test_compute_seconds_nonnegative():
    def prog(c):
        x = sum(i * i for i in range(10000))
        c.barrier()
        return x

    report = run_report(3, prog)
    assert all(o.compute_seconds >= 0.0 for o in report.outcomes)


# SerialComm ---------------------------------------------------------------


def _every_collective(c):
    """Call the ten collectives plus ``reduce``; return the values in order."""
    arr = np.arange(6, dtype=np.float64)
    out = [c.allgather(7), c.allreduce(arr, SUM), c.exscan(7, SUM), c.scan(arr, SUM)]
    out += [c.bcast("x"), c.gather(arr), c.scatter([arr]), c.alltoall([3])]
    out += [c.exchange({0: arr}), c.exchange({}), c.reduce(arr, MAX), c.barrier()]
    return out


def _counters(stats):
    return {op: (s.calls, s.messages, s.bytes_sent) for op, s in stats.items()}


def test_serial_comm_matches_spmd_size1():
    """``SerialComm`` is the size-1 machine: same values, same metering."""
    c = SerialComm()
    serial = _every_collective(c)
    assert (serial[0], serial[2], serial[4], serial[7], serial[9]) == ([7], 0, "x", [3], {})
    report = run_report(1, _every_collective)
    (machine,) = report.values
    assert len(serial) == len(machine)
    for got, want in zip(serial, machine):
        np.testing.assert_equal(got, want)
    assert _counters(c.stats) == _counters(report.outcomes[0].stats)
    assert c.stats.total_calls == 12  # reduce meters as the allreduce it expands to


def test_serial_comm_rejects_remote():
    c = SerialComm()
    with pytest.raises(ValueError):
        c.exchange({1: "x"})
    with pytest.raises(ValueError):
        c.bcast("x", root=1)
    with pytest.raises(ValueError):
        c.scatter(["a", "b"])
    with pytest.raises(ValueError):
        c.alltoall([])


# Reduction ops and identities ----------------------------------------------


@given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20))
def test_identity_elements(values):
    for op in (SUM, PROD, MIN, MAX):
        ident = identity_for(op, values[0])
        acc = ident
        for v in values:
            acc = op(acc, v)
        direct = values[0]
        for v in values[1:]:
            direct = op(direct, v)
        assert acc == direct


def test_logical_ops():
    assert LOR(False, True) is True
    assert LAND(True, False) is False
    assert identity_for(LOR, True) is False
    assert identity_for(LAND, False) is True


@settings(max_examples=30)
@given(st.integers(2, 8))
def test_exscan_min_identity(size):
    def prog(c):
        return c.exscan(c.rank, MIN)

    out = run(size, prog)
    assert out[0] >= 2**60  # identity: "infinity"
    assert out[1:] == [0] * (size - 1)


def test_payload_nbytes():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(np.zeros(3)) == 24
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(7) == 8
    assert payload_nbytes([1, 2.0]) == 24
    assert payload_nbytes({"k": 1}) == 8 + 1 + 8
    assert payload_nbytes("hello") == 5
