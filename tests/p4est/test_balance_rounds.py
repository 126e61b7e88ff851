"""Balance's seeded rounds against the full-generation loop.

``balance`` generates round 1's constraint regions from every leaf and
each later round's only from the leaves the previous round created, and
it skips the regions at a sibling's position.  ``reference_balance``
below is the loop it replaced: every leaf, every direction, every round.
Both run on the same generated forest and partition, with marks that are
a function of the octant, so after every round the leaves on each rank
(hence the global leaf set) and the round count must agree.

``route_to_owners`` keeps the calling rank's own share of the regions as
octants and sends only the other ranks' shares.  ``reference_route``
below is the routing it replaced, which sent every share through the
wire, its own included; both must deliver the same regions and meter the
same traffic.
"""

import importlib
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4est.balance import (
    _constraint_regions,
    balance,
    dedup_octants,
    generate_neighbor_regions,
    is_balanced,
    route_exterior_indexed,
    route_to_owners,
    split_by_dest,
)
from repro.p4est.builders import brick_2d, moebius, rotcubes, shell, unit_square
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.p4est.octant import Octants, is_ancestor_pairwise
from repro.p4est.validate import validate_forest
from repro.parallel import SerialComm
from repro.parallel.ops import LOR
from tests.parallel.helpers import run as spmd

CONNS = {
    "unit_square": (unit_square, 6),
    "brick_2d": (lambda: brick_2d(2, 2, periodic_x=True, periodic_y=True), 6),
    "moebius": (moebius, 6),
    "rotcubes": (rotcubes, 4),
    "shell": (shell, 4),
}

# ``repro.p4est.balance`` the attribute is the function, not the module.
balance_mod = importlib.import_module("repro.p4est.balance")
_enforce = balance_mod._enforce_constraints
_log = threading.local()


def _recording_enforce(leaves, constraints):
    out = _enforce(leaves, constraints)
    _log.rounds.append(out[0])
    return out


def reference_balance(forest, codim):
    """The full-generation loop; returns (rounds, leaves after each round)."""
    per_round = []
    while True:
        regions = generate_neighbor_regions(
            forest.conn, forest.local, codim, min_level=2
        )
        constraints = route_to_owners(forest, dedup_octants(regions))
        forest.local, born = _enforce(forest.local, constraints)
        per_round.append(forest.local)
        if not forest.comm.allreduce(bool(len(born)), LOR):
            break
    forest._refresh_counts()
    return len(per_round), per_round


def reference_route(forest, regions):
    """Every share of ``regions`` packed and exchanged, the own included."""
    outbox = {}
    if len(regions):
        dests, src = forest.owner_segments(regions)
        for p, idxs in split_by_dest(dests, src, len(regions)):
            outbox[p] = octants_to_wire(regions[idxs])
    inbox = forest.comm.exchange(outbox)
    received = [octants_from_wire(forest.dim, w) for w in inbox.values() if len(w)]
    if not received:
        return Octants.empty(forest.dim)
    return dedup_octants(Octants.concat(received))


def octant_marks(octs, seed, maxlevel):
    """Refine marks hashed from (tree, x, y, z, level): rank-independent."""
    h = np.zeros(len(octs), dtype=np.uint64)
    for col in (np.full(len(octs), seed), octs.tree, octs.x, octs.y, octs.z, octs.level):
        # One splitmix64 step per field.
        h ^= col.astype(np.uint64)
        h += np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return (h % np.uint64(10) < np.uint64(3)) & (octs.level < maxlevel)


def _cuts(n, size, empty):
    """Leaf ranges per rank: equal shares over every rank but ``empty``."""
    holders = [p for p in range(size) if p != empty]
    bounds = [n * i // len(holders) for i in range(len(holders) + 1)]
    cuts, k = [], 0
    for p in range(size):
        if p == empty:
            cuts.append((bounds[k], bounds[k]))
        else:
            cuts.append((bounds[k], bounds[k + 1]))
            k += 1
    return cuts


@settings(max_examples=30, deadline=None)
@given(
    conn_name=st.sampled_from(sorted(CONNS)),
    seed=st.integers(0, 2**20),
    size=st.sampled_from([1, 3, 5]),
    data=st.data(),
)
def test_seeded_rounds_match_full_generation(conn_name, seed, size, data):
    build, maxlevel = CONNS[conn_name]
    conn = build()
    codim = data.draw(st.integers(1, conn.dim), label="codim")
    empty = data.draw(st.integers(0, size - 1), label="empty") if size > 1 else -1
    serial = Forest.new(conn, SerialComm(), level=1)
    serial.refine(callback=lambda o: octant_marks(o, seed, maxlevel), recursive=True)
    leaves = serial.local
    cuts = _cuts(len(leaves), size, empty)

    def prog(comm):
        lo, hi = cuts[comm.rank]
        mine = leaves[np.arange(lo, hi)]
        ref = Forest(conn, comm, mine.copy())
        want_rounds, want = reference_balance(ref, codim)
        forest = Forest(conn, comm, mine.copy())
        _log.rounds = []
        rounds = balance(forest, codim=codim)
        got = _log.rounds
        assert is_balanced(forest, codim=codim)
        validate_forest(comm, forest, codim=codim)
        return (
            rounds,
            want_rounds,
            [octants_to_wire(g) for g in got],
            [octants_to_wire(w) for w in want],
            forest.checksum(),
            ref.checksum(),
        )

    with mock.patch.object(balance_mod, "_enforce_constraints", _recording_enforce):
        out = spmd(size, prog)
    for rounds, want_rounds, got, want, cks, ref_cks in out:
        assert rounds == want_rounds == len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert cks == ref_cks


def test_sibling_regions_are_skipped():
    """An interior leaf keeps 19 of 26 directions in 3D and 5 of 8 in 2D."""
    for conn, nkept in ((rotcubes(), 19), (unit_square(), 5)):
        forest = Forest.new(conn, SerialComm(), level=3)
        # Child 0 of an interior level-2 parent: no region leaves the root.
        leaf = forest.local[np.array([0])]
        h = int(leaf.lens()[0])
        shift = np.full(1, 4 * h)
        leaf = leaf.shifted(shift, shift, shift * (conn.dim == 3))
        full = generate_neighbor_regions(conn, leaf, conn.dim, min_level=2)
        kept = _constraint_regions(conn, leaf, conn.dim)
        assert len(full) == 3**conn.dim - 1
        assert len(kept) == nkept
        parent = leaf.parents()[np.zeros(len(full), dtype=np.int64)]
        sibling = is_ancestor_pairwise(parent, full)
        assert sibling.sum() == 2**conn.dim - 1
        np.testing.assert_array_equal(
            octants_to_wire(dedup_octants(full[~sibling])),
            octants_to_wire(dedup_octants(kept)),
        )


def test_route_exterior_indexed_empty():
    for conn in (moebius(), rotcubes()):
        ext = Octants.empty(conn.dim)
        assert route_exterior_indexed(conn, ext, np.empty(0, dtype=np.int64)) == []


def _op_stats(comm):
    return {op: (s.calls, s.messages, s.bytes_sent) for op, s in comm.stats.ops.items()}


def _delta(before, after):
    return {
        op: tuple(x - y for x, y in zip(v, before.get(op, (0, 0, 0))))
        for op, v in after.items()
        if v != before.get(op)
    }


@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_route_to_owners_matches_full_wire(conn_name):
    """Each rank receives the full-wire reference's regions, and the
    exchange meters the same calls, messages and bytes."""
    build, maxlevel = CONNS[conn_name]
    conn = build()
    serial = Forest.new(conn, SerialComm(), level=1)
    serial.refine(callback=lambda o: octant_marks(o, 7, maxlevel), recursive=True)
    leaves = serial.local
    for size, empty in ((1, -1), (3, 1), (5, 4)):
        cuts = _cuts(len(leaves), size, empty)

        def prog(comm):
            lo, hi = cuts[comm.rank]
            forest = Forest(conn, comm, leaves[np.arange(lo, hi)].copy())
            regions = generate_neighbor_regions(conn, forest.local, conn.dim)
            regions = dedup_octants(regions)
            before = _op_stats(comm)
            got = route_to_owners(forest, regions)
            mid = _op_stats(comm)
            want = reference_route(forest, regions)
            after = _op_stats(comm)
            np.testing.assert_array_equal(octants_to_wire(got), octants_to_wire(want))
            assert _delta(before, mid) == _delta(mid, after)
            assert set(_delta(before, mid)) == {"exchange"}
            return len(got)

        assert sum(spmd(size, prog)) >= len(leaves)
