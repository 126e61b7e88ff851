"""Tests for ghost layer construction and ghost data exchange."""

import numpy as np
import pytest

from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, moebius, rotcubes, shell, unit_square
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.p4est.ghost import build_ghost
from repro.p4est.octant import Octants, searchsorted_octants
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd

from tests.p4est.test_forest import fractal_mask, gather_global


def test_ghost_serial_is_empty():
    forest = Forest.new(unit_square(), SerialComm(), level=3)
    forest.comm.stats.reset()
    ghost = build_ghost(forest)
    assert len(ghost) == 0
    assert len(ghost.mirrors) == 0
    assert ghost.mirror_map == {} and ghost.ghost_map == {}
    # A lone rank generates no neighbour regions but still makes the one
    # (empty) exchange: the collective sequence does not depend on size.
    ops = forest.comm.stats.ops
    assert (ops["exchange"].calls, ops["exchange"].messages) == (1, 0)
    # Data exchange degenerates gracefully.
    out = ghost.exchange_octant_data(forest.comm, np.arange(forest.local_count))
    assert out.shape == (0,)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_ghost_uniform_2d(size):
    conn = unit_square()

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)
        ghost = build_ghost(forest)
        # Ghosts are sorted, remote, and owned by the rank they claim.
        assert ghost.octants.is_sorted()
        assert np.all(ghost.owners != comm.rank)
        check = forest.owner_of(ghost.octants)
        np.testing.assert_array_equal(check, ghost.owners)
        # Mirror/ghost maps are consistent with the exchange.
        data = np.arange(forest.local_count, dtype=np.float64) + 100.0 * comm.rank
        gdata = ghost.exchange_octant_data(comm, data)
        assert gdata.shape == (len(ghost),)
        return len(ghost), forest.local_count

    out = spmd(size, prog)
    for ng, nl in out:
        assert 0 < ng <= 64 - nl


@pytest.mark.parametrize("size", [2, 4])
def test_ghost_contains_all_adjacent_remote_leaves(size):
    """Reference check: ghosts = every remote leaf adjacent to my leaves."""
    conn = brick_2d(2, 1)

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        forest.refine(callback=lambda o: fractal_mask(o, 4), recursive=True)
        balance(forest)
        forest.partition()
        ghost = build_ghost(forest)
        full = gather_global(comm, forest)
        owners_full = forest.owner_of(full)
        # Brute-force adjacency between my leaves and all remote leaves.
        mine = forest.local
        missing = 0
        spurious = 0
        ghost_keys = set(
            zip(ghost.octants.tree.tolist(), ghost.octants.keys().tolist())
        )
        expect_keys = set()
        for j in range(len(full)):
            if owners_full[j] == comm.rank:
                continue
            leaf = full.octant(j)
            if _adjacent_to_any(conn, mine, full[np.array([j])]):
                expect_keys.add((leaf.tree, int(full.keys()[j])))
        missing = len(expect_keys - ghost_keys)
        spurious_set = ghost_keys - expect_keys
        return missing, len(spurious_set), len(ghost)

    out = spmd(size, prog)
    for missing, spurious, ng in out:
        assert missing == 0, "ghost layer missed an adjacent remote leaf"
        assert ng > 0


def _adjacent_to_any(conn, mine, leaf):
    """Does `leaf` (1-element Octants) touch any of my leaves?"""
    from repro.p4est.balance import generate_neighbor_regions
    from repro.p4est.octant import is_ancestor_pairwise, overlaps_any

    # leaf touches my leaf iff one of leaf's neighbor regions (all codims)
    # overlaps my set, or my leaf is inside/equal to one of them.
    regions = generate_neighbor_regions(conn, leaf, conn.dim)
    if len(regions) == 0:
        return False
    from repro.p4est.octant import overlaps_any

    return bool(overlaps_any(mine, regions).any())


@pytest.mark.parametrize("builder", [moebius, rotcubes, shell])
def test_ghost_across_trees(builder):
    conn = builder()

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        ghost = build_ghost(forest)
        # Every rank bordering another tree must see inter-tree ghosts
        # whenever the neighboring tree is on another rank.
        trees_local = set(np.unique(forest.local.tree).tolist())
        trees_ghost = set(np.unique(ghost.octants.tree).tolist())
        return len(ghost), bool(trees_ghost - trees_local)

    out = spmd(4, prog)
    assert all(ng > 0 for ng, _ in out)
    # At least one rank sees ghosts from a tree it does not own.
    assert any(cross for _, cross in out)


@pytest.mark.parametrize("size", [2, 3])
def test_ghost_data_exchange_roundtrip(size):
    """Ghost data equals the owner's local data for the same octant."""
    conn = brick_2d(2, 2)

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        ghost = build_ghost(forest)
        # Encode each octant by its own SFC key so values are predictable.
        data = forest.local.keys().astype(np.float64)
        gdata = ghost.exchange_octant_data(comm, data)
        np.testing.assert_array_equal(gdata, ghost.octants.keys().astype(np.float64))
        # Vector payloads work too.
        vec = np.stack([data, 2 * data], axis=1)
        gvec = ghost.exchange_octant_data(comm, vec)
        assert gvec.shape == (len(ghost), 2)
        np.testing.assert_array_equal(gvec[:, 1], 2 * gdata)
        return True

    assert all(spmd(size, prog))


def test_ghost_codim_1_smaller_than_full():
    conn = brick_2d(2, 2)

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)
        g1 = build_ghost(forest, codim=1)
        g2 = build_ghost(forest, codim=2)
        return len(g1), len(g2)

    out = spmd(4, prog)
    assert any(a < b for a, b in out)
    assert all(a <= b for a, b in out)


def test_ghost_bad_codim():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    with pytest.raises(ValueError):
        build_ghost(forest, codim=0)


@pytest.mark.parametrize("size", [2, 4])
def test_mirrors_match_neighbor_ghosts(size):
    """My mirror octants are exactly what neighbors store as my ghosts."""
    conn = brick_2d(2, 1)

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)
        ghost = build_ghost(forest)
        sent = {
            p: octants_to_wire(forest.local[idx]).tolist()
            for p, idx in ghost.mirror_map.items()
        }
        inventories = comm.allgather(
            {
                int(src): octants_to_wire(ghost.octants[idx]).tolist()
                for src, idx in ghost.ghost_map.items()
            }
        )
        for p, wire in sent.items():
            assert inventories[p][comm.rank] == wire
        return True

    assert all(spmd(size, prog))
