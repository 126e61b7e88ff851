"""Properties of the flat face-pair enumeration.

Bit-for-bit agreement with the per-pair loop it replaced is pinned through
the mortar batches in ``tests/mangll/test_bind_pins.py``; these tests state
the enumeration's own contract: row order, one interface per face, and the
symmetry of the two sides' views across every tree orientation.
"""

from collections import Counter

import numpy as np
import pytest

from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, moebius, rotcubes, shell, unit_square
from repro.p4est.facepairs import (
    BOUNDARY,
    COARSE,
    CONFORMING,
    FINE,
    face_pairs,
    partner_face,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.octant import Octants
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd

BUILDERS = {
    "square": unit_square,
    "torus": lambda: brick_2d(2, 2, periodic_x=True, periodic_y=True),
    "moebius": moebius,
    "rotcubes": rotcubes,
    "shell": shell,
}
STAGE = {BOUNDARY: 0, CONFORMING: 1, FINE: 2, COARSE: 3}  # order within a face


def _enumerate(comm, name):
    conn = BUILDERS[name]()
    forest = Forest.new(conn, comm, level=1)
    for _ in range(2):
        o = forest.local
        s = (o.D.maxlevel - o.level).astype(np.int64)
        forest.refine(
            mask=(o.tree * 7 + (o.x >> s) * 3 + (o.y >> s) * 5 + (o.z >> s)) % 4 == 0
        )
    balance(forest)
    forest.partition()
    ghost = build_ghost(forest)
    parts = [forest.local, ghost.octants] if len(ghost) else [forest.local]
    combined = Octants.concat(parts)
    return conn, forest, combined, face_pairs(conn, forest.local, combined)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("size", [1, 3])
def test_row_order_and_face_coverage(name, size):
    def prog(comm):
        conn, forest, combined, fp = _enumerate(comm, name)
        n = len(fp.kind)
        assert all(len(c) == n and c.dtype == np.int64 for c in
                   (fp.kind, fp.face, fp.elem, fp.partner, fp.transform_id))
        # Face-major; boundary, same-size, coarser, finer; element ascending;
        # the finer leaves of one face in SFC order.
        sfc = np.empty(len(combined), dtype=np.int64)
        sfc[combined.sort_order()] = np.arange(len(combined))
        stage = np.array([STAGE[k] for k in fp.kind.tolist()], dtype=np.int64)
        pos = np.where(fp.partner >= 0, sfc[fp.partner], -1)
        keys = list(zip(fp.face.tolist(), stage.tolist(), fp.elem.tolist(), pos.tolist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == n
        # Every face of every element has exactly one interface: a boundary,
        # one same-size or coarser partner, or 2**(dim-1) finer ones.
        per_face = Counter(zip(fp.elem.tolist(), fp.face.tolist()))
        kinds = dict(zip(zip(fp.elem.tolist(), fp.face.tolist()), fp.kind.tolist()))
        assert len(per_face) == len(forest.local) * forest.D.num_faces
        half = forest.D.num_children // 2
        assert all(c == (half if kinds[ef] == COARSE else 1) for ef, c in per_face.items())
        assert np.array_equal(fp.partner < 0, fp.kind == BOUNDARY)
        assert fp.transforms[0] is None and None not in fp.transforms[1:]
        return n

    assert all(n > 0 for n in spmd(size, prog))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_both_sides_see_the_same_interface(name):
    """On one rank every interface is enumerated from both sides: a
    conforming pair twice, a hanging one as FINE from the small side and
    COARSE from the large, on the faces the transform identifies."""
    conn, forest, _, fp = _enumerate(SerialComm(), name)
    rows = set()
    for kind, f, e, p, t in zip(*(c.tolist() for c in
                                  (fp.kind, fp.face, fp.elem, fp.partner, fp.transform_id))):
        if kind == BOUNDARY:
            tree = int(forest.local.tree[e])
            assert conn.is_boundary_face(tree, f)
        else:
            rows.add((kind, e, f, p, partner_face(f, fp.transforms[t])))
    mirror = {CONFORMING: CONFORMING, FINE: COARSE, COARSE: FINE}
    assert rows == {(mirror[k], p, fp_, e, f) for k, e, f, p, fp_ in rows}
    assert {k for k, *_ in rows} == {CONFORMING, FINE, COARSE}


def test_partners_missing_from_the_search_set_yield_no_row():
    """Without a ghost layer the faces on the partition boundary find
    nothing; the enumeration reports what it found and no more."""

    def prog(comm):
        conn = unit_square()
        forest = Forest.new(conn, comm, level=2)
        fp = face_pairs(conn, forest.local, forest.local)
        assert np.all(fp.partner < len(forest.local))
        return len(fp.kind)

    assert sum(spmd(2, prog)) < sum(spmd(1, prog))


def test_empty_rank_enumerates_nothing():
    conn = unit_square()
    fp = face_pairs(conn, Octants.empty(2), Octants.empty(2))
    assert all(len(c) == 0 for c in (fp.kind, fp.face, fp.elem, fp.partner, fp.transform_id))
