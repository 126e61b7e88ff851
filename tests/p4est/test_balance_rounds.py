"""Balance's seeded rounds against the full-generation loop.

``balance`` generates round 1's constraint regions from every leaf and
each later round's only from the leaves the previous round created, one
parent-level neighbourhood per family (siblings of the parent skipped),
each region emitted as its first child.  ``reference_balance`` below is
the loop it replaced: every leaf, every direction, every round.
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
    _violations,
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
from repro.p4est.octant import Octants, is_ancestor_pairwise, searchsorted_octants
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


def _families(conn):
    """Level-3 families: one of an interior level-2 parent, then one at
    the first and one at the last corner of every tree."""
    leaves = Forest.new(conn, SerialComm(), level=3).local
    nc = 2**conn.dim
    family = leaves[np.arange(nc)]
    shift = np.full(nc, 4 * int(family.lens()[0]))
    yield family.shifted(shift, shift, shift * (conn.dim == 3))
    starts = np.flatnonzero(np.diff(leaves.tree, prepend=-1))
    ends = np.append(starts[1:], len(leaves))
    for a in (*starts, *(ends - nc)):
        yield leaves[np.arange(a, a + nc)]


def test_family_regions_are_parent_neighbours():
    """A family yields its parent's non-sibling neighbours, mapped into
    the neighbour trees at the parent level, at their anchors and the
    leaves' level, whichever of its leaves are seeds: 19 regions in 3D
    and 5 in 2D for an interior family."""
    for conn, nkept in ((rotcubes(), 19), (moebius(), 5), (unit_square(), 5)):
        for i, family in enumerate(_families(conn)):
            parent = family.parents()[np.array([0])]
            around = generate_neighbor_regions(conn, parent, conn.dim)
            grand = parent.parents()[np.zeros(len(around), dtype=np.int64)]
            sibling = is_ancestor_pairwise(grand, around)
            assert sibling.sum() == 2**conn.dim - 1
            want = around[~sibling]
            want = Octants(conn.dim, want.tree, want.x, want.y, want.z, want.level + 1)
            for seeds in (family, family[np.array([0])], family[np.array([-1])]):
                got = _constraint_regions(conn, seeds, conn.dim)
                assert (got.level == family.level[0]).all()
                if i == 0:
                    assert len(got) == nkept
                np.testing.assert_array_equal(
                    octants_to_wire(dedup_octants(got)),
                    octants_to_wire(dedup_octants(want)),
                )


def _violators(leaves, regions):
    """Indices of the leaves some region violates (``_violations``)."""
    viol = _violations(leaves, regions)
    return np.unique(searchsorted_octants(leaves, regions[viol], side="right") - 1)


@settings(max_examples=40, deadline=None)
@given(
    conn_name=st.sampled_from(["moebius", "rotcubes", "shell", "unit_square"]),
    seed=st.integers(0, 2**20),
    data=st.data(),
)
def test_family_regions_violate_like_full_generation(conn_name, seed, data):
    """Family regions violate exactly the leaves full generation's do, on
    round 1 (every leaf a seed, families incomplete) and on the round
    after it (seeds = the leaves round 1 created)."""
    build, maxlevel = CONNS[conn_name]
    conn = build()
    codim = data.draw(st.integers(1, conn.dim), label="codim")
    forest = Forest.new(conn, SerialComm(), level=1)
    forest.refine(callback=lambda o: octant_marks(o, seed, maxlevel), recursive=True)
    leaves, seeds = forest.local, forest.local
    for _ in range(2):
        full = dedup_octants(generate_neighbor_regions(conn, seeds, codim, min_level=2))
        family = dedup_octants(_constraint_regions(conn, seeds, codim))
        want = _violators(leaves, full)
        np.testing.assert_array_equal(_violators(leaves, family), want)
        if not len(want):
            break
        leaves, seeds = _enforce(leaves, full)


def test_is_balanced_keeps_full_generation():
    """The verifier never goes through Balance's own region generator."""
    conn = rotcubes()
    forest = Forest.new(conn, SerialComm(), level=1)
    forest.refine(callback=lambda o: octant_marks(o, 3, 4), recursive=True)
    unbalanced = Forest(conn, SerialComm(), forest.local.copy())
    with mock.patch.object(
        balance_mod, "_constraint_regions", wraps=_constraint_regions
    ) as gen:
        assert not is_balanced(unbalanced)
        gen.assert_not_called()
        balance(forest)
        assert gen.called  # the patch is the generator Balance uses
        gen.reset_mock()
        assert is_balanced(forest)
        gen.assert_not_called()


def test_route_exterior_indexed_empty():
    for conn in (moebius(), rotcubes()):
        ext = Octants.empty(conn.dim)
        src, img = route_exterior_indexed(conn, ext, np.empty(0, dtype=np.int64))
        assert len(src) == 0 and img == Octants.empty(conn.dim)


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
