"""Tests for the distributed forest: New, Refine, Coarsen, Partition,
owner search, and invariance of global state under rank count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4est.builders import (
    brick_2d,
    moebius,
    rotcubes,
    shell,
    unit_cube,
    unit_square,
)
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.p4est.octant import Octants
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd

SIZES = [1, 2, 3, 5]


def gather_global(comm, forest):
    """Collect the full sorted leaf set on every rank (test helper)."""
    wires = comm.allgather(octants_to_wire(forest.local))
    parts = [octants_from_wire(forest.dim, w) for w in wires if len(w)]
    return Octants.concat(parts)


def fractal_mask(octs, maxlevel):
    """The paper's fractal refinement: subdivide children 0, 3, 5, 6."""
    cid = octs.child_ids()
    keep = (cid == 0) | (cid == 3) | (cid == 5) | (cid == 6)
    return keep & (octs.level < maxlevel)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("level", [0, 1, 2])
def test_new_uniform(size, level):
    conn = rotcubes()

    def prog(comm):
        forest = Forest.new(conn, comm, level=level)
        forest.validate()
        return forest.global_count, forest.local_count

    out = spmd(size, prog)
    expect = conn.num_trees * (1 << (3 * level))
    assert all(g == expect for g, _ in out)
    locals_ = [l for _, l in out]
    assert sum(locals_) == expect
    assert max(locals_) - min(locals_) <= 1


def test_new_with_empty_ranks():
    conn = unit_square()

    def prog(comm):
        forest = Forest.new(conn, comm, level=0)
        forest.validate()
        return forest.local_count

    out = spmd(4, prog)
    assert sorted(out) == [0, 0, 0, 1]


def test_new_bad_level():
    conn = unit_square()
    with pytest.raises(ValueError):
        Forest.new(conn, SerialComm(), level=-1)
    with pytest.raises(ValueError):
        Forest.new(conn, SerialComm(), level=99)


@pytest.mark.parametrize("size", SIZES)
def test_refine_all_multiplies(size):
    conn = moebius()

    def prog(comm):
        forest = Forest.new(conn, comm, level=1)
        n0 = forest.global_count
        forest.refine(mask=np.ones(forest.local_count, dtype=bool))
        forest.validate()
        return n0, forest.global_count

    for n0, n1 in spmd(size, prog):
        assert n1 == 4 * n0


def test_refine_mask_wrong_length():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    with pytest.raises(ValueError):
        forest.refine(mask=np.ones(99, dtype=bool))
    with pytest.raises(ValueError):
        forest.refine()
    with pytest.raises(ValueError):
        forest.refine(mask=np.ones(4, bool), callback=lambda o: None)


def test_refine_recursive_fractal():
    conn = unit_cube()
    forest = Forest.new(conn, SerialComm(), level=1)
    forest.refine(callback=lambda o: fractal_mask(o, 4), recursive=True)
    forest.validate()
    hist = forest.levels_histogram()
    assert hist[4] > 0  # reached the target depth
    assert forest.global_count > 8
    # No octant deeper than requested.
    assert hist[5:].sum() == 0


def test_refine_respects_maxlevel_cap():
    forest = Forest.new(unit_square(), SerialComm(), level=0)
    forest.refine(mask=np.ones(1, dtype=bool), maxlevel=0)
    assert forest.global_count == 1  # cap prevented refinement


def test_coarsen_inverts_refine():
    conn = unit_cube()
    forest = Forest.new(conn, SerialComm(), level=2)
    n0 = forest.global_count
    forest.refine(mask=np.ones(forest.local_count, dtype=bool))
    assert forest.global_count == 8 * n0
    ncoarse = forest.coarsen(mask=np.ones(forest.local_count, dtype=bool))
    assert ncoarse == n0
    assert forest.global_count == n0
    forest.validate()


def test_coarsen_partial_families():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    # Flag only 3 of 4 children: nothing may coarsen.
    mask = np.array([True, True, True, False])
    assert forest.coarsen(mask=mask) == 0
    assert forest.global_count == 4


def test_coarsen_recursive_collapses_to_root():
    forest = Forest.new(unit_square(), SerialComm(), level=3)
    n = forest.coarsen(callback=lambda o: np.ones(len(o), bool), recursive=True)
    assert forest.global_count == 1
    assert n == 16 + 4 + 1  # families coarsened at levels 3, 2, 1
    forest.validate()


def test_coarsen_requires_whole_family_locally():
    conn = unit_square()

    def prog(comm):
        # Level 1 has 4 octants over 2 ranks: each rank holds half a family.
        forest = Forest.new(conn, comm, level=1)
        done = forest.coarsen(mask=np.ones(forest.local_count, dtype=bool))
        forest.validate()
        return done, forest.global_count

    out = spmd(2, prog)
    assert all(d == 0 and g == 4 for d, g in out)


@pytest.mark.parametrize("size", SIZES)
def test_partition_balances_counts(size):
    conn = moebius()

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        # Make the distribution lopsided: refine only on low ranks.
        if comm.rank == 0:
            forest.refine(mask=np.ones(forest.local_count, dtype=bool))
        else:
            forest.refine(mask=np.zeros(forest.local_count, dtype=bool))
        forest.partition()
        forest.validate()
        return forest.local_count, forest.global_count

    out = spmd(size, prog)
    counts = [c for c, _ in out]
    assert max(counts) - min(counts) <= 1
    assert len({g for _, g in out}) == 1


@pytest.mark.parametrize("size", [2, 4])
def test_partition_weighted(size):
    conn = brick_2d(2, 2)

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)

        def weights():  # 3 for tree-0 octants, 1 elsewhere
            return np.where(forest.local.tree == 0, 3.0, 1.0)

        forest.partition()
        unweighted = float(weights().sum())
        forest.partition(weights=weights())
        forest.validate()
        return unweighted, float(weights().sum())

    unweighted, weighted = zip(*spmd(size, prog))
    assert max(weighted) - min(weighted) <= 3.0  # within one max-weight octant
    # The weighted-partition ablation: equal counts leave the load lopsided.
    assert max(weighted) - min(weighted) < max(unweighted) - min(unweighted)


def test_partition_rejects_bad_weights():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    with pytest.raises(ValueError):
        forest.partition(weights=np.ones(3))
    with pytest.raises(ValueError):
        forest.partition(weights=np.array([1.0, -1.0, 1.0, 1.0]))


@pytest.mark.parametrize("size", SIZES)
def test_global_leafset_is_rank_invariant(size):
    """The same refinement produces the same global forest on any P."""
    conn = rotcubes()

    def prog(comm):
        forest = Forest.new(conn, comm, level=1)
        forest.refine(callback=lambda o: fractal_mask(o, 3), recursive=True)
        forest.partition()
        forest.validate()
        return octants_to_wire(gather_global(comm, forest))

    reference = spmd(1, prog)[0]
    out = spmd(size, prog)
    for wire in out:
        np.testing.assert_array_equal(wire, reference)


@pytest.mark.parametrize("size", SIZES)
def test_owner_search(size):
    conn = brick_2d(2, 1)

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)
        # Every local octant must be owned by me.
        owners = forest.owner_of(forest.local)
        assert np.all(owners == comm.rank)
        # Collect everyone's octants; check consistent ownership.
        full = gather_global(comm, forest)
        owners_full = forest.owner_of(full)
        offsets = forest.markers.offsets()
        for p in range(comm.size):
            seg = owners_full[offsets[p] : offsets[p + 1]]
            assert np.all(seg == p)
        return True

    assert all(spmd(size, prog))


def test_owner_range_spans_ranks():
    conn = unit_square()

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)  # 64 octants over 4 ranks
        # The root octant overlaps every rank.
        root = Octants.uniform_slice(2, 1, 0, 0, 1)
        lo, hi = forest.owner_range(root)
        return int(lo[0]), int(hi[0])

    out = spmd(4, prog)
    assert out == [(0, 3)] * 4


def test_markers_shared_metadata_is_small():
    conn = shell()

    def prog(comm):
        forest = Forest.new(conn, comm, level=1)
        m = forest.markers
        # One marker per rank plus sentinel: O(P) metadata, paper §II-B.
        assert len(m.tree) == comm.size + 1
        assert len(m.counts) == comm.size
        assert m.global_count == forest.global_count
        return True

    assert all(spmd(3, prog))


def test_wire_roundtrip():
    octs = Octants.uniform_slice(3, 2, 1, 3, 11)
    wire = octants_to_wire(octs)
    assert wire.shape == (8, 5)
    back = octants_from_wire(3, wire)
    assert back == octs


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000), st.sampled_from([1, 2, 3, 5]))
def test_random_refine_partition_roundtrips(seed, size):
    """Random refinement then partition keeps all invariants on any P."""
    conn = moebius()

    def prog(comm):
        rng = np.random.default_rng(seed)  # same stream on all ranks not
        # required: masks are local decisions.
        forest = Forest.new(conn, comm, level=2)
        rng = np.random.default_rng(seed + comm.rank)
        for _ in range(2):
            mask = rng.random(forest.local_count) < 0.3
            forest.refine(mask=mask)
        forest.partition()
        forest.validate()
        return forest.global_count

    counts = spmd(size, prog)
    assert len(set(counts)) == 1


def test_levels_histogram():
    forest = Forest.new(unit_square(), SerialComm(), level=2)
    hist = forest.levels_histogram()
    assert hist[2] == 16 and hist.sum() == 16
