"""Nodes' hanging flags and numbering against per-element formulations.

``lnodes`` asks its hanging questions once per family: each distinct
parent's 2*dim faces and (3D) 12 edges, "does a leaf of at most the
parent's level hold the parent's neighbour there?", and each child reads
the answers for its outward faces and edges off its child-id bits.
``reference_flags`` below is the per-element classification: the
same-size region in every face and edge direction of every element,
routed through the macro links by ``test_link_table``'s per-group loop,
classified against the combined local + ghost leaves, then the rule that
an edge adjacent to a hanging face hangs with it; ``reference_positions``
gives each element's child position within the parent face or edge.
Both must agree on every rank, and the numbering must not depend on the
partition.

``lnodes`` builds the slot keys as points of each family's
``(2N+1)^dim`` lattice, keys only the points some slot references, and
canonicalizes only the distinct in-tree keys.  ``reference_numbering``
below is the per-element construction: a loop over the slots and the
faces and edges each lies on, then every slot key canonicalized by
``test_link_table``'s per-group loop and deduplicated with
``np.unique``.  Both must give the same keys and element nodes.

The family path has edge cases of its own, each checked against these
references: a parent that is a tree root, whose questions are root-size
regions in unrefined neighbour trees across rotated links; a family cut
between ranks (P = 3, one rank empty); families holding only some
children as leaves; and degrees 1-3 in 2D and 3D.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4est.balance import balance, dedup_octants
from repro.p4est.builders import unit_cube, unit_square
from repro.p4est.connectivity import (
    edge_axis,
    edge_transverse_sides,
    face_axis_side,
    face_tangential_axes,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import _edge_adjacent_faces, lnodes
from repro.p4est.octant import Octants, is_ancestor_pairwise, searchsorted_octants
from repro.parallel import SerialComm
from tests.p4est.test_balance_rounds import CONNS, _cuts, octant_marks
from tests.p4est.test_forest import fractal_mask
from tests.p4est.test_link_table import reference_canonicalize, reference_route
from tests.parallel.helpers import run as spmd

BOUNDARY, CONFORMING, COARSER = 0, 1, 2


def _classify_regions(combined: Octants, regions: Octants) -> np.ndarray:
    out = np.full(len(regions), BOUNDARY, dtype=np.int8)
    if not len(regions) or not len(combined):
        return out
    lo = searchsorted_octants(combined, regions, side="right")
    hi = searchsorted_octants(combined, regions.last_descendants(), side="right")
    out[hi > lo] = CONFORMING
    anc = combined[np.maximum(lo - 1, 0)]
    contained = (lo > 0) & is_ancestor_pairwise(anc, regions)
    out[contained & (anc.level < regions.level)] = COARSER
    out[contained & (anc.level == regions.level)] = CONFORMING
    return out


def _batch_region_config(conn, combined, elems, offsets) -> np.ndarray:
    nelem = len(elems)
    h = elems.lens()
    parts: List[Octants] = []
    tags: List[np.ndarray] = []
    for d, off in enumerate(offsets):
        nb = elems.shifted(off[0] * h, off[1] * h, off[2] * h)
        inside = nb.inside_root()
        idx_in = np.flatnonzero(inside)
        if len(idx_in):
            parts.append(nb[idx_in])
            tags.append(d * nelem + idx_in)
        idx_out = np.flatnonzero(~inside)
        if len(idx_out):
            for gidx, regs in reference_route(conn, nb[idx_out], idx_out):
                parts.append(regs)
                tags.append(d * nelem + gidx)
    cfg = np.full(len(offsets) * nelem, BOUNDARY, dtype=np.int8)
    if parts:
        got = _classify_regions(combined, Octants.concat(parts))
        np.maximum.at(cfg, np.concatenate(tags), got)
    return cfg.reshape(len(offsets), nelem)


def reference_flags(conn, combined, elems):
    """Boolean (nelem, 2*dim) face and (nelem, 12) edge hanging flags."""
    dim = conn.dim
    offsets = []
    for f in range(2 * dim):
        axis, side = face_axis_side(f)
        off = np.zeros(3, dtype=np.int64)
        off[axis] = 2 * side - 1
        offsets.append(off)
    for e in range(12 if dim == 3 else 0):
        off = np.zeros(3, dtype=np.int64)
        for a, s in edge_transverse_sides(e).items():
            off[a] = 2 * s - 1
        offsets.append(off)
    cfg = _batch_region_config(conn, combined, elems, offsets) == COARSER
    faces = cfg[: 2 * dim].T
    edges = np.zeros((len(elems), 12), dtype=bool)
    for e in range(12 if dim == 3 else 0):
        fa, fb = _edge_adjacent_faces(e)
        edges[:, e] = cfg[2 * dim + e] | faces[:, fa] | faces[:, fb]
    return faces, edges


def reference_numbering(conn, elems, hanging_face, hanging_edge, N):
    """Keys and element nodes from the per-slot loop, with every slot key
    canonicalized before one ``np.unique``."""
    dim = conn.dim
    nelem = len(elems)
    nslots = (N + 1) ** dim
    h = elems.lens()
    x_cols = [elems.x, elems.y, elems.z]
    keys = np.zeros((nelem, nslots, 3), dtype=np.int64)
    for s in range(nslots):
        iv = [(s // (N + 1) ** a) % (N + 1) if a < dim else 0 for a in range(3)]
        parent_axes = np.zeros((nelem, 3), dtype=bool)
        for f in range(2 * dim):
            axis, side = face_axis_side(f)
            if iv[axis] == side * N:
                for a in face_tangential_axes(dim, f):
                    parent_axes[hanging_face[:, f] >= 0, a] = True
        for e in range(12 if dim == 3 else 0):
            sides = edge_transverse_sides(e).items()
            if all(iv[a] == sd * N for a, sd in sides):
                parent_axes[hanging_edge[:, e] >= 0, edge_axis(e)] = True
        for a in range(dim):
            own = N * x_cols[a] + iv[a] * h
            par = N * (x_cols[a] & ~(2 * h - 1)) + iv[a] * 2 * h
            keys[:, s, a] = np.where(parent_axes[:, a], par, own)
    rows = np.column_stack([np.repeat(elems.tree.astype(np.int64), nslots), keys.reshape(-1, 3)])
    uniq, inverse = np.unique(reference_canonicalize(conn, rows, N), axis=0, return_inverse=True)
    return uniq, inverse.reshape(nelem, nslots)


def _key_set(keys: np.ndarray) -> set:
    return set(map(tuple, keys.tolist()))


@settings(max_examples=30, deadline=None)
@given(
    conn_name=st.sampled_from(sorted(CONNS)),
    seed=st.integers(0, 2**20),
    level=st.sampled_from([0, 1]),
    degree=st.integers(1, 3),
    data=st.data(),
)
def test_hanging_flags_match_all_directions(conn_name, seed, level, degree, data):
    build, maxlevel = CONNS[conn_name]
    conn = build()
    serial = Forest.new(conn, SerialComm(), level=level)
    serial.refine(callback=lambda o: octant_marks(o, seed, maxlevel), recursive=True)
    balance(serial, codim=conn.dim)
    leaves = serial.local
    one = lnodes(serial, build_ghost(serial), degree)

    for size in (1, 3, 5):
        empty = data.draw(st.integers(0, size - 1), label=f"empty@{size}") if size > 1 else -1
        cuts = _cuts(len(leaves), size, empty)

        def prog(comm):
            lo, hi = cuts[comm.rank]
            forest = Forest(conn, comm, leaves[np.arange(lo, hi)].copy())
            ghost = build_ghost(forest)
            ln = lnodes(forest, ghost, degree)
            combined = forest.local
            if len(ghost.octants):
                combined = Octants.concat([forest.local, ghost.octants]).sorted()
            faces, edges = reference_flags(conn, combined, forest.local)
            np.testing.assert_array_equal(ln.hanging_face >= 0, faces)
            if conn.dim == 3:
                np.testing.assert_array_equal(ln.hanging_edge >= 0, edges)
            return ln.global_num_nodes, ln.keys[ln.is_owned()]

        out = spmd(size, prog)
        assert all(total == one.global_num_nodes for total, _ in out)
        owned = [_key_set(keys) for _, keys in out]
        assert sum(map(len, owned)) == one.global_num_nodes
        assert set().union(*owned) == _key_set(one.keys)


def test_every_outward_region_beyond_an_unconnected_boundary():
    """Uniform level 1 on one square: every question leaves the domain."""
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    ln = lnodes(forest, build_ghost(forest), 2)
    assert (ln.hanging_face == -1).all()
    assert ln.global_num_nodes == 25


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_numbering_matches_per_slot_reference(conn_name, degree):
    """Table-built slot keys, deduplicated before canonicalization, give
    the per-slot loop's keys and element nodes on every rank."""
    build, maxlevel = CONNS[conn_name]
    conn = build()
    serial = Forest.new(conn, SerialComm(), level=1)
    serial.refine(callback=lambda o: octant_marks(o, 7, maxlevel - 1), recursive=True)
    balance(serial, codim=conn.dim)
    leaves = serial.local
    for size, empty in ((1, -1), (3, 0), (5, 2)):
        cuts = _cuts(len(leaves), size, empty)

        def prog(comm):
            lo, hi = cuts[comm.rank]
            forest = Forest(conn, comm, leaves[np.arange(lo, hi)].copy())
            ln = lnodes(forest, build_ghost(forest), degree)
            keys, nodes = reference_numbering(
                conn, forest.local, ln.hanging_face, ln.hanging_edge, degree
            )
            np.testing.assert_array_equal(ln.keys, keys)
            np.testing.assert_array_equal(ln.element_nodes, nodes)
            return len(forest.local), int((ln.hanging_face >= 0).sum())

        out = spmd(size, prog)
        assert sum(n for n, _ in out) == len(leaves)
        assert sum(hanging for _, hanging in out) > 0


def test_edge_hangs_while_neither_adjacent_face_does():
    """Level-1 children 0, 1 and 2 of a cube refined, child 3 not: the
    level-2 element of child 0 at (1/4, 1/4) has same-size leaves across
    its +x and +y faces and the coarse child 3 across its +x+y edge."""
    forest = Forest.new(unit_cube(), SerialComm(), level=1)
    forest.refine(mask=np.isin(forest.local.child_ids(), [0, 1, 2]))
    balance(forest)
    octs = forest.local
    (i,) = np.flatnonzero(
        (octs.level == 2) & (octs.x == octs.lens()) & (octs.y == octs.lens()) & (octs.z == 0)
    )
    e = 8 + 1 + 2  # along z, on the +x and +y sides
    fa, fb = _edge_adjacent_faces(e)
    for degree in (1, 2, 3):
        ln = lnodes(forest, build_ghost(forest), degree)
        assert ln.hanging_edge[i, e] >= 0
        assert ln.hanging_face[i, fa] == ln.hanging_face[i, fb] == -1
        keys, nodes = reference_numbering(
            forest.conn, octs, ln.hanging_face, ln.hanging_edge, degree
        )
        np.testing.assert_array_equal(ln.keys, keys)
        np.testing.assert_array_equal(ln.element_nodes, nodes)


def reference_positions(elems):
    """Child positions of every element within each parent face
    ``(nelem, 2*dim)`` and along each parent edge ``(nelem, 12)``: its
    child-id bits on the face's tangential axes, and on the edge's axis."""
    dim = elems.dim
    cid = elems.child_ids().astype(np.int64)
    bit = [(cid >> a) & 1 for a in range(dim)]
    faces = np.zeros((len(elems), 2 * dim), dtype=np.int64)
    for f in range(2 * dim):
        for k, a in enumerate(face_tangential_axes(dim, f)):
            faces[:, f] += bit[a] << k
    edges = np.zeros((len(elems), 12), dtype=np.int64)
    for e in range(12 if dim == 3 else 0):
        edges[:, e] = bit[edge_axis(e)]
    return faces, edges


def _check_ranks(conn, leaves, cuts, degree):
    """``lnodes`` on each rank's share of ``leaves`` against
    ``reference_flags``, ``reference_positions`` and
    ``reference_numbering``; returns (global count, owned keys, hanging
    faces) per rank."""

    def prog(comm):
        lo, hi = cuts[comm.rank]
        forest = Forest(conn, comm, leaves[np.arange(lo, hi)].copy())
        ghost = build_ghost(forest)
        ln = lnodes(forest, ghost, degree)
        combined = forest.local
        if len(ghost.octants):
            combined = Octants.concat([forest.local, ghost.octants]).sorted()
        faces, edges = reference_flags(conn, combined, forest.local)
        face_pos, edge_pos = reference_positions(forest.local)
        np.testing.assert_array_equal(ln.hanging_face, np.where(faces, face_pos, -1))
        if conn.dim == 3:
            np.testing.assert_array_equal(ln.hanging_edge, np.where(edges, edge_pos, -1))
        keys, nodes = reference_numbering(
            conn, forest.local, ln.hanging_face, ln.hanging_edge, degree
        )
        np.testing.assert_array_equal(ln.keys, keys)
        np.testing.assert_array_equal(ln.element_nodes, nodes)
        return ln.global_num_nodes, ln.keys[ln.is_owned()], int(faces.sum())

    return spmd(len(cuts), prog)


def _assert_partition_independent(conn, leaves, out, degree):
    serial = Forest(conn, SerialComm(), leaves.copy())
    one = lnodes(serial, build_ghost(serial), degree)
    assert all(total == one.global_num_nodes for total, _, _ in out)
    owned = [_key_set(keys) for _, keys, _ in out]
    assert sum(map(len, owned)) == one.global_num_nodes
    assert set().union(*owned) == _key_set(one.keys)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("conn_name", ["moebius", "rotcubes", "shell"])
def test_root_parent_next_to_unrefined_tree(conn_name, degree):
    """Tree 0 split once, every other tree a level-0 leaf: the level-1
    leaves' parent is their tree's root, so its questions are root-size
    regions mapped across rotated links, each held by a neighbour tree's
    own root leaf."""
    conn = CONNS[conn_name][0]()
    forest = Forest.new(conn, SerialComm(), level=0)
    forest.refine(mask=forest.local.tree == 0)
    leaves = forest.local
    n = len(leaves)
    for cuts in ([(0, n)], _cuts(n, 3, 1)):
        out = _check_ranks(conn, leaves, cuts, degree)
        assert sum(hanging for _, _, hanging in out) > 0
        _assert_partition_independent(conn, leaves, out, degree)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_family_cut_across_ranks(conn_name, degree):
    """P = 3 with the middle rank empty and the cut between two siblings:
    both holders ask the shared parent's questions for their own
    children."""
    build, maxlevel = CONNS[conn_name]
    conn = build()
    serial = Forest.new(conn, SerialComm(), level=1)
    serial.refine(callback=lambda o: octant_marks(o, 7, maxlevel - 1), recursive=True)
    balance(serial)
    leaves = serial.local
    parents = leaves.parents()
    siblings = np.flatnonzero(
        (parents.tree[1:] == parents.tree[:-1]) & (parents.keys()[1:] == parents.keys()[:-1])
    )
    k = int(siblings[len(siblings) // 2]) + 1
    out = _check_ranks(conn, leaves, [(0, k), (k, k), (k, len(leaves))], degree)
    assert sum(hanging for _, _, hanging in out) > 0
    _assert_partition_independent(conn, leaves, out, degree)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_partial_families(conn_name, degree):
    """Fractal marks split children 0, 3, 5 and 6 (0 and 3 in 2D), so
    most families hold some children as leaves and the others refined."""
    build, maxlevel = CONNS[conn_name]
    conn = build()
    serial = Forest.new(conn, SerialComm(), level=1)
    serial.refine(callback=lambda o: fractal_mask(o, maxlevel - 1), recursive=True)
    balance(serial)
    leaves = serial.local
    parents = dedup_octants(leaves.parents())
    assert len(parents) * 2**conn.dim > len(leaves)
    n = len(leaves)
    for cuts in ([(0, n)], _cuts(n, 3, 0)):
        out = _check_ranks(conn, leaves, cuts, degree)
        assert sum(hanging for _, _, hanging in out) > 0
        _assert_partition_independent(conn, leaves, out, degree)
