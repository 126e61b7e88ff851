"""Macro-link routing and node-key canonicalization against per-group loops.

``route_exterior_indexed`` maps octants outside their tree's root cube
into the neighbour trees, and ``_canonicalize_keys`` replaces a lattice
point on a tree boundary by the smallest of its images.  The references
below are the loops those replaced: the exterior octants (or boundary
keys) are grouped by (tree, boundary pattern), and each group goes
through the face transform, the edge pin or the corner pin of every link
of its tree face, edge or corner.  The three maps are written out here
from the link records alone:

* a face link's ``CellTransform`` ``(perm, sign, offset)`` maps target
  axis ``j`` to ``sign[j] * x[perm[j]] + offset[j]``, minus the octant
  side ``h`` on a flipped axis (lattice points scale the offset by N);
* an edge link keeps (or, if flipped, reverses) the along-edge
  coordinate and pins each transverse coordinate inward of the
  neighbour's edge (``0`` or ``L - h``; points ``0`` or ``N L``);
* a corner link pins every coordinate at the neighbour's corner.

Both must agree with the library on every exterior region of codim
``<= dim`` of every test forest at levels 1 to 3, as multisets of
(source index, image) pairs, and the canonical keys must be equal to the
bit at degrees 1 to 3.
"""

from typing import List, Tuple

import numpy as np
import pytest

from repro.p4est.balance import route_exterior_indexed
from repro.p4est.connectivity import EDGE_CORNERS, edge_axis, edge_transverse_sides
from repro.p4est.forest import Forest
from repro.p4est.nodes import _canonicalize_keys
from repro.p4est.octant import Octants, neighborhood
from repro.parallel import SerialComm
from tests.p4est.test_balance_rounds import CONNS


def _groups(tree: np.ndarray, patt: np.ndarray, dim: int):
    """Yield ``(rows, tree, {out axis: side bit})`` per (tree, pattern)
    group, where ``patt`` holds a base-3 digit per axis (0 inside, 1 low,
    2 high)."""
    code = tree.astype(np.int64) * 3**dim + patt
    for c in np.unique(code):
        rows = np.flatnonzero(code == c)
        p = int(c) % 3**dim
        digits = [(p // 3**a) % 3 for a in range(dim)]
        sides = {a: d - 1 for a, d in enumerate(digits) if d}
        yield rows, int(c) // 3**dim, sides


def _edge_of(axis: int, sides) -> int:
    """The 3D edge along ``axis`` on the given transverse sides."""
    for e in EDGE_CORNERS:
        if edge_axis(e) == axis and edge_transverse_sides(e) == sides:
            return e
    raise AssertionError((axis, sides))


def _links(conn, tree: int, sides):
    """``(kind, link)`` for every link of the face, edge or corner of
    ``tree`` that a (tree, pattern) group with these out sides crosses."""
    dim = conn.dim
    if len(sides) == 1:
        ((a, s),) = sides.items()
        link = conn.face_links.get((tree, 2 * a + s))
        return [("face", link)] if link is not None else []
    if len(sides) == 2 and dim == 3:
        axis = next(a for a in range(3) if a not in sides)
        return [("edge", l) for l in conn.edge_links.get((tree, _edge_of(axis, sides)), ())]
    corner = sum(s << a for a, s in sides.items())
    return [("corner", l) for l in conn.corner_links.get((tree, corner), ())]


def _map(conn, kind: str, link, coords: List[np.ndarray], h, top: int) -> List[np.ndarray]:
    """Image coordinates of one group through one link.

    ``coords`` are the group's per-axis coordinates; ``top`` is the far
    end of the root cube on this lattice (``L``, or ``N L`` for points)
    and ``h`` is subtracted where an octant's far side lands (0 for
    points)."""
    dim = conn.dim
    n = len(coords[0])
    pinned = lambda side: np.full(n, top, dtype=np.int64) - h if side else np.zeros(n, dtype=np.int64)
    out: List[np.ndarray] = [None] * dim  # type: ignore[list-item]
    if kind == "face":
        t = link.transform
        scale = top // conn.D.root_len
        for j in range(dim):
            val = t.sign[j] * coords[t.perm[j]] + scale * t.offset[j]
            out[j] = val - h if t.sign[j] < 0 else val
    elif kind == "edge":
        along = coords[edge_axis(link.edge)]
        out[edge_axis(link.nb_edge)] = top - along - h if link.flipped else along
        for a, side in edge_transverse_sides(link.nb_edge).items():
            out[a] = pinned(side)
    else:
        for a in range(dim):
            out[a] = pinned((link.nb_corner >> a) & 1)
    return out


def reference_route(conn, ext: Octants, src_idx: np.ndarray) -> List[Tuple[np.ndarray, Octants]]:
    """``(source indices, images)`` per (tree, pattern) group and link."""
    dim = conn.dim
    L = conn.D.root_len
    cols = [ext.x, ext.y, ext.z][:dim]
    patt = sum(((c < 0) * 1 + (c >= L) * 2) * 3**a for a, c in enumerate(cols))
    out = []
    for rows, tree, sides in _groups(ext.tree, np.asarray(patt, dtype=np.int64), dim):
        h = ext.lens()[rows]
        for kind, link in _links(conn, tree, sides):
            img = _map(conn, kind, link, [c[rows] for c in cols], h, L)
            img += [np.zeros(len(rows), dtype=np.int64)] * (3 - dim)
            nb = np.full(len(rows), link.nb_tree, dtype=np.int32)
            out.append((src_idx[rows], Octants(dim, nb, *img, ext.level[rows])))
    return out


def reference_canonicalize(conn, keys: np.ndarray, N: int) -> np.ndarray:
    """Each ``(tree, kx, ky, kz)`` key replaced by the lexicographically
    smallest of itself and its link images on the N-scaled lattice."""
    dim = conn.dim
    NL = N * conn.D.root_len
    keys = keys.copy()
    patt = sum(((keys[:, 1 + a] == 0) * 1 + (keys[:, 1 + a] == NL) * 2) * 3**a for a in range(dim))
    patt = np.asarray(patt, dtype=np.int64)
    on = np.flatnonzero(patt > 0)
    for rows, tree, sides in _groups(keys[on, 0], patt[on], dim):
        rows = on[rows]
        best = [tuple(r) for r in keys[rows].tolist()]
        coords = [keys[rows, 1 + a] for a in range(dim)]
        for kind, link in _links(conn, tree, sides):
            img = _map(conn, kind, link, coords, 0, NL)
            img += [np.zeros(len(rows), dtype=np.int64)] * (3 - dim)
            cand = np.column_stack([np.full(len(rows), link.nb_tree)] + img).tolist()
            best = [min(b, tuple(c)) for b, c in zip(best, cand)]
        keys[rows] = best
    return keys


def _pair_rows(src: np.ndarray, octs: Octants) -> np.ndarray:
    """(source index, octant) rows in one canonical order."""
    rows = np.column_stack([src, octs.tree, octs.x, octs.y, octs.z, octs.level])
    return rows[np.lexsort(rows.T[::-1])]


def _flatten(routed: List[Tuple[np.ndarray, Octants]], dim: int) -> Tuple[np.ndarray, Octants]:
    parts = [(s, o) for s, o in routed if len(o)]
    if not parts:
        return np.empty(0, dtype=np.int64), Octants.empty(dim)
    return np.concatenate([s for s, _ in parts]), Octants.concat([o for _, o in parts])


def _lattice(conn, level: int, N: int) -> np.ndarray:
    """Every point of every tree's degree-``N`` lattice at ``level``."""
    dim = conn.dim
    h = conn.D.root_len >> level
    ticks = np.arange(N * 2**level + 1, dtype=np.int64) * h
    grid = np.stack(np.meshgrid(*[ticks] * dim, indexing="ij"), -1).reshape(-1, dim)
    n = len(grid)
    keys = np.zeros((conn.num_trees * n, 4), dtype=np.int64)
    keys[:, 0] = np.repeat(np.arange(conn.num_trees), n)
    keys[:, 1 : 1 + dim] = np.tile(grid, (conn.num_trees, 1))
    return keys


LEVELS = [1, 2, 3]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_route_matches_per_group_reference(conn_name, level):
    """Every exterior region of codim ``<= dim`` of a uniform forest."""
    conn = CONNS[conn_name][0]()
    leaves = Forest.new(conn, SerialComm(), level=level).local
    src, nb = neighborhood(leaves, conn.dim)
    out = ~nb.inside_root()
    ext, ext_src = nb[out], src[out]
    got = route_exterior_indexed(conn, ext, ext_src)
    ref = _flatten(reference_route(conn, ext, ext_src), conn.dim)
    assert len(ref[1]) > 0 or not (conn.face_links or conn.corner_links)
    np.testing.assert_array_equal(_pair_rows(*got), _pair_rows(*ref))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("conn_name", sorted(CONNS))
def test_canonical_keys_match_per_group_reference(conn_name, level, degree):
    conn = CONNS[conn_name][0]()
    keys = _lattice(conn, level, degree)
    got = _canonicalize_keys(conn, keys, degree)
    np.testing.assert_array_equal(got, reference_canonicalize(conn, keys, degree))
    if conn.num_trees > 1:
        assert (got != keys).any()
