"""Tests for 2:1 balance: invariants, inter-tree propagation, rank
invariance, and the independent brute-force verifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4est.balance import balance, generate_neighbor_regions, is_balanced
from repro.p4est.connectivity import corner_index, edge_index
from repro.p4est.builders import (
    brick_2d,
    brick_3d,
    moebius,
    rotcubes,
    shell,
    unit_cube,
    unit_square,
)
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.p4est.octant import Octants, is_ancestor_pairwise
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd

from tests.p4est.test_forest import fractal_mask, gather_global


def brute_force_balanced(conn, leaves, codim):
    """O(n^2)-ish reference check of the 2:1 property on a full leaf set."""
    regions = generate_neighbor_regions(conn, leaves, codim)
    ok = True
    for i in range(len(regions)):
        r = regions[i]
        rr = regions[np.array([i])]
        for j in range(len(leaves)):
            leaf = leaves[np.array([j])]
            if leaf.tree[0] != r.tree[0]:
                continue
            if is_ancestor_pairwise(leaf, rr)[0] and leaf.level[0] < r.level[0] - 1:
                ok = False
    return ok


def test_edge_corner_index_tables():
    from repro.p4est.connectivity import EDGE_CORNERS, edge_axis, edge_transverse_sides

    for e in range(12):
        a = edge_axis(e)
        sides = edge_transverse_sides(e)
        assert edge_index(a, sides) == e
    assert corner_index(2, {0: 1, 1: 0}) == 1
    assert corner_index(3, {0: 1, 1: 1, 2: 1}) == 7


def test_balance_single_tree_point_refinement():
    """Refining toward the domain center forces a graded cascade.

    (A corner staircase is naturally balanced; cells whose upper corner is
    the center point abut the untouched level-1 cells, so deep refinement
    there genuinely violates 2:1.)
    """
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    half = forest.D.root_len // 2
    for _ in range(5):
        mask = (forest.local.x + forest.local.lens() == half) & (
            forest.local.y + forest.local.lens() == half
        )
        forest.refine(mask=mask)
    assert not is_balanced(forest)
    balance(forest)
    forest.validate()
    assert is_balanced(forest)
    # Grading: the far level-1 octants had to split.
    hist = forest.levels_histogram()
    assert hist[6] > 0 and hist[1] == 0


def test_balance_codim_variants_2d():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    half = forest.D.root_len // 2
    for _ in range(4):
        mask = (forest.local.x + forest.local.lens() == half) & (
            forest.local.y + forest.local.lens() == half
        )
        forest.refine(mask=mask)
    f_face = Forest.new(unit_square(), SerialComm(), level=1)
    f_face.local = forest.local.copy()
    f_face._refresh_counts()
    balance(f_face, codim=1)
    f_full = Forest.new(unit_square(), SerialComm(), level=1)
    f_full.local = forest.local.copy()
    f_full._refresh_counts()
    balance(f_full, codim=2)
    # Corner balance is at least as strong as face balance.
    assert f_full.global_count >= f_face.global_count
    assert is_balanced(f_full, codim=2)
    assert is_balanced(f_face, codim=1)


def test_balance_codim_variants_3d():
    """The balance-codimension ablation: face, edge, then corner balance of
    the paper's rotcubes fractal; a stronger condition never coarsens."""
    counts = []
    for codim in (1, 2, 3):
        forest = Forest.new(rotcubes(), SerialComm(), level=1)
        forest.refine(callback=lambda o: fractal_mask(o, 4), recursive=True)
        assert forest.global_count == 3576
        balance(forest, codim=codim)
        assert is_balanced(forest, codim=codim)
        counts.append(forest.global_count)
    assert counts == [4920, 5592, 5592]


def test_balance_codim_bad():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    with pytest.raises(ValueError):
        balance(forest, codim=0)
    with pytest.raises(ValueError):
        balance(forest, codim=3)


@pytest.mark.parametrize("conn_builder", [moebius, lambda: brick_2d(2, 2, periodic_x=True)])
def test_balance_crosses_tree_boundaries_2d(conn_builder):
    conn = conn_builder()
    forest = Forest.new(conn, SerialComm(), level=1)
    # Deep refinement hugging the +x face of tree 0.
    D = forest.D
    L = D.root_len
    for _ in range(5):
        touch = (forest.local.tree == 0) & (
            forest.local.x + forest.local.lens() == L
        )
        forest.refine(mask=touch)
    balance(forest)
    forest.validate()
    assert is_balanced(forest)
    # The neighbor tree must have been refined near the shared face.
    nb_levels = forest.local.level[forest.local.tree != 0]
    assert nb_levels.max() >= 4


@pytest.mark.parametrize("conn_builder", [rotcubes, shell, lambda: brick_3d(2, 1, 1)])
def test_balance_crosses_tree_boundaries_3d(conn_builder):
    conn = conn_builder()
    forest = Forest.new(conn, SerialComm(), level=1)
    for _ in range(3):
        at_origin = (
            (forest.local.tree == 0)
            & (forest.local.x == 0)
            & (forest.local.y == 0)
            & (forest.local.z == 0)
        )
        forest.refine(mask=at_origin)
    balance(forest)
    forest.validate()
    assert is_balanced(forest)


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_balance_rank_invariant(size):
    """Balance produces the identical global forest on any rank count."""
    conn = rotcubes()

    def prog(comm):
        forest = Forest.new(conn, comm, level=1)
        forest.refine(callback=lambda o: fractal_mask(o, 4), recursive=True)
        forest.partition()
        balance(forest)
        forest.validate()
        assert is_balanced(forest)
        return octants_to_wire(gather_global(comm, forest))

    reference = spmd(1, prog)[0]
    for wire in spmd(size, prog):
        np.testing.assert_array_equal(wire, reference)


def test_balance_idempotent():
    conn = moebius()
    forest = Forest.new(conn, SerialComm(), level=1)
    forest.refine(callback=lambda o: fractal_mask(o, 4), recursive=True)
    balance(forest)
    n1 = forest.global_count
    rounds = balance(forest)
    assert forest.global_count == n1
    assert rounds == 1  # already balanced: single no-op round


def test_balance_already_uniform():
    forest = Forest.new(unit_cube(), SerialComm(), level=2)
    n0 = forest.global_count
    balance(forest)
    assert forest.global_count == n0
    assert is_balanced(forest)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_balance_random_refinements_brute_force(seed, size):
    """Property: after balance, the brute-force 2:1 check passes and the
    refinement is a superset of the input leaves' resolution."""
    conn = brick_2d(2, 1)

    def prog(comm):
        rng = np.random.default_rng(seed + comm.rank)
        forest = Forest.new(conn, comm, level=1)
        for _ in range(3):
            forest.refine(mask=rng.random(forest.local_count) < 0.35)
        before = gather_global(comm, forest)
        balance(forest)
        forest.validate()
        assert is_balanced(forest)
        after = gather_global(comm, forest)
        return octants_to_wire(before), octants_to_wire(after)

    out = spmd(size, prog)
    before = octants_from_wire(2, out[0][0])
    after = octants_from_wire(2, out[0][1])
    assert brute_force_balanced(conn, after, 2)
    # Balance only refines: every original leaf is covered at >= its level.
    from repro.p4est.octant import searchsorted_octants

    pos = searchsorted_octants(after, before, side="left")
    leaf_at = after[np.minimum(pos, len(after) - 1)]
    same = (
        (leaf_at.tree == before.tree)
        & (leaf_at.x == before.x)
        & (leaf_at.y == before.y)
        & (leaf_at.level >= before.level)
    )
    assert same.all()


def test_generate_neighbor_regions_counts():
    conn = unit_square()
    forest = Forest.new(conn, SerialComm(), level=2)
    # Interior octant contributes all 8 (4 faces + 4 corners) regions;
    # boundary octants fewer (unit square has no links).
    regions = generate_neighbor_regions(conn, forest.local, 2)
    assert len(regions) < 16 * 8
    assert regions.inside_root().all()


def test_generate_neighbor_regions_periodic_keeps_all():
    conn = brick_2d(2, 2, periodic_x=True, periodic_y=True)
    forest = Forest.new(conn, SerialComm(), level=1)
    regions = generate_neighbor_regions(conn, forest.local, 2)
    # On the 2-torus every neighbor region exists somewhere.  Per level-1
    # leaf: 4 face regions (one image each) and 4 corner regions — one
    # interior, two routed through a face link, and one through the shared
    # macro-corner, which seeds all three other trees meeting there
    # (leaves in face-adjacent trees also touch my leaf at that point,
    # so corner balance must constrain them too): 4 + 1 + 2 + 3 = 10.
    assert len(regions) == forest.global_count * 10
    assert regions.inside_root().all()
