"""Nodes' hanging flags against the full 18-direction classification.

``lnodes`` asks a "strictly coarser leaf across?" question only for the
outward face on each axis and, in 3D, the three edges outward on both
transverse axes.  ``reference_flags`` below is the classification it
replaced: the same-size region in every face and edge direction of every
element, routed through the macro links, classified against the combined
local + ghost leaves, then the rule that an edge adjacent to a hanging
face hangs with it.  Both must flag the same faces and edges on every
rank, and the numbering must not depend on the partition.
"""

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4est.balance import balance, route_exterior_indexed
from repro.p4est.builders import unit_square
from repro.p4est.connectivity import edge_transverse_sides, face_axis_side
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import _edge_adjacent_faces, lnodes
from repro.p4est.octant import Octants, is_ancestor_pairwise, searchsorted_octants
from repro.parallel import SerialComm
from tests.p4est.test_balance_rounds import CONNS, _cuts, octant_marks
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
            for gidx, regs in route_exterior_indexed(conn, nb[idx_out], idx_out):
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
