"""Forest macro-topology: trees glued through faces, edges, and corners.

A :class:`Connectivity` describes the static, globally replicated macro-mesh
of the forest (paper §II-B/§II-D): ``K`` logical cubes, each with its own
right-handed coordinate system, connected conformally through macro-faces,
macro-edges, and macro-corners with arbitrary relative rotations.  Any
number of trees may share an edge or corner.

Adjacency is *derived* from a shared-vertex description (``tree_to_vertex``
over a vertex id list), the same way ``p4est_connectivity_new_*`` builders
work, and the inter-tree coordinate transforms are computed from corner
correspondences as integer signed-permutation affine maps.  No floating
point enters any topological decision (paper: "connectivity and
neighborhood relations are computed discretely").

Every link crossing is one integer affine map per target axis ``j``:
``x'_j = sign[j] * x[src[j]] + off[j] + hcoef[j] * h`` for an octant of
side ``h``, and ``k'_j = sign[j] * k[src[j]] + N * off[j]`` for a point
of the degree-``N`` lattice.  :class:`LinkTable` holds one such row per
link, built once per connectivity and keyed by the (tree, boundary
pattern) code of what crosses it:

* a face row is the link's :class:`CellTransform`, a global rigid map
  between two trees' lattices that maps interior *and* exterior octants
  (paper Fig. 3), with ``hcoef = -1`` on its flipped axes;
* an edge row keeps or flips the along-edge coordinate and pins each
  transverse coordinate inward of the neighbor's edge;
* a corner row pins every coordinate at the neighbor's corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.p4est.bits import dimension
from repro.p4est.octant import Octants

# Corner/face/edge conventions (z-order, p4est-compatible) --------------------
#
# Corner i has coordinate bits: x = i & 1, y = (i >> 1) & 1, z = (i >> 2) & 1.
# Face f: axis f // 2, side f % 2 (side 0 at coordinate 0, side 1 at L).
# Face corners are listed in "face z-order": position bits follow the two
# tangential axes in ascending axis order.

FACE_CORNERS = {
    2: {
        0: (0, 2),
        1: (1, 3),
        2: (0, 1),
        3: (2, 3),
    },
    3: {
        0: (0, 2, 4, 6),
        1: (1, 3, 5, 7),
        2: (0, 1, 4, 5),
        3: (2, 3, 6, 7),
        4: (0, 1, 2, 3),
        5: (4, 5, 6, 7),
    },
}

# 3D edges: 0-3 along x, 4-7 along y, 8-11 along z (p8est numbering).
EDGE_CORNERS = {
    0: (0, 1),
    1: (2, 3),
    2: (4, 5),
    3: (6, 7),
    4: (0, 2),
    5: (1, 3),
    6: (4, 6),
    7: (5, 7),
    8: (0, 4),
    9: (1, 5),
    10: (2, 6),
    11: (3, 7),
}


def face_axis_side(face: int) -> Tuple[int, int]:
    """(normal axis, side) of a face; side 0 at coordinate 0, 1 at L."""
    return face // 2, face % 2


def face_tangential_axes(dim: int, face: int) -> Tuple[int, ...]:
    axis = face // 2
    return tuple(a for a in range(dim) if a != axis)


def edge_axis(edge: int) -> int:
    """The axis a 3D edge runs along."""
    return edge // 4


def edge_transverse_sides(edge: int) -> Dict[int, int]:
    """Map of transverse axis -> side bit (0 or 1) for a 3D edge."""
    c0, c1 = EDGE_CORNERS[edge]
    axis = edge_axis(edge)
    sides = {}
    for a in range(3):
        if a == axis:
            continue
        bit0 = (c0 >> a) & 1
        bit1 = (c1 >> a) & 1
        assert bit0 == bit1
        sides[a] = bit0
    return sides


def corner_coords(dim: int, corner: int, length: int) -> Tuple[int, ...]:
    return tuple(((corner >> a) & 1) * length for a in range(dim))


def edge_index(axis: int, sides: Dict[int, int]) -> int:
    """3D edge number from its direction axis and transverse side bits."""
    trans = [a for a in range(3) if a != axis]
    s0, s1 = sides[trans[0]], sides[trans[1]]
    return 4 * axis + s0 + 2 * s1


def corner_index(dim: int, sides: Dict[int, int]) -> int:
    """Corner number from its side bit on every axis (z-order)."""
    c = 0
    for a in range(dim):
        c |= sides[a] << a
    return c


@lru_cache(maxsize=None)
def _crossings(dim: int) -> Tuple[Tuple[str, int], ...]:
    """Per boundary pattern (see :class:`LinkTable`), the kind and number
    of the tree face, 3D edge or corner it lies beyond."""
    out = []
    for p in range(3**dim):
        sides = {a: (p // 3**a) % 3 - 1 for a in range(dim) if (p // 3**a) % 3}
        if not sides:
            out.append(("inside", -1))
        elif len(sides) == 1:
            ((a, s),) = sides.items()
            out.append(("face", 2 * a + s))
        elif len(sides) == 2 and dim == 3:
            axis = next(a for a in range(3) if a not in sides)
            out.append(("edge", edge_index(axis, sides)))
        else:
            out.append(("corner", corner_index(dim, sides)))
    return tuple(out)


# Transforms -------------------------------------------------------------------


@dataclass(frozen=True)
class CellTransform:
    """Rigid integer map from one tree's lattice to another's.

    For target axis ``j``: ``x'_j = sign[j] * x[perm[j]] + offset[j]``, and
    for *cells* of side ``h`` a flipped axis additionally subtracts ``h``
    so that the half-open interval ``[x, x+h)`` maps onto ``[x', x'+h)``.
    """

    dim: int
    perm: Tuple[int, ...]
    sign: Tuple[int, ...]
    offset: Tuple[int, ...]

    @classmethod
    def identity(cls, dim: int) -> "CellTransform":
        return cls(dim, tuple(range(dim)), (1,) * dim, (0,) * dim)

    def apply_points(
        self, coords: Sequence[np.ndarray], scale: int = 1
    ) -> List[np.ndarray]:
        """Map lattice points (no cell-size correction).

        ``scale`` stretches the lattice uniformly (offsets included); the
        degree-N node numbering uses ``scale=N`` so node positions stay
        integral.
        """
        out = []
        for j in range(self.dim):
            src = np.asarray(coords[self.perm[j]])
            if src.dtype.kind not in "fc":
                src = src.astype(np.int64)
            out.append(self.sign[j] * src + scale * self.offset[j])
        return out

    def apply_octants(self, octs: Octants, target_tree: int) -> Octants:
        """Map whole octants (lower-left corners with cell correction)."""
        h = octs.lens()
        coords = [octs.x, octs.y, octs.z]
        out = []
        for j in range(self.dim):
            src = coords[self.perm[j]]
            val = self.sign[j] * src + self.offset[j]
            if self.sign[j] < 0:
                val = val - h
            out.append(val)
        while len(out) < 3:
            out.append(np.zeros(len(octs), dtype=np.int64))
        tree = np.full(len(octs), target_tree, dtype=np.int32)
        return Octants(octs.dim, tree, out[0], out[1], out[2], octs.level.copy())

    def inverse(self) -> "CellTransform":
        perm = [0] * self.dim
        sign = [0] * self.dim
        offset = [0] * self.dim
        for j in range(self.dim):
            i = self.perm[j]
            perm[i] = j
            sign[i] = self.sign[j]
            # x' = x + off => x = x' - off; x' = -x + off => x = -x' + off.
            offset[i] = -self.offset[j] if self.sign[j] > 0 else self.offset[j]
        return CellTransform(self.dim, tuple(perm), tuple(sign), tuple(offset))

    def compose(self, inner: "CellTransform") -> "CellTransform":
        """Return the transform equal to applying ``inner`` then ``self``."""
        perm = [0] * self.dim
        sign = [0] * self.dim
        offset = [0] * self.dim
        for j in range(self.dim):
            k = self.perm[j]
            perm[j] = inner.perm[k]
            sign[j] = self.sign[j] * inner.sign[k]
            offset[j] = self.sign[j] * inner.offset[k] + self.offset[j]
        return CellTransform(self.dim, tuple(perm), tuple(sign), tuple(offset))

    def is_identity(self) -> bool:
        return (
            self.perm == tuple(range(self.dim))
            and all(s == 1 for s in self.sign)
            and all(o == 0 for o in self.offset)
        )


@dataclass(frozen=True)
class FaceLink:
    """Connection of one tree face to a neighbor tree face."""

    tree: int
    face: int
    nb_tree: int
    nb_face: int
    corner_map: Tuple[int, ...]  # my face-corner position -> neighbor position
    transform: CellTransform  # my tree lattice -> neighbor tree lattice


@dataclass(frozen=True)
class EdgeLink:
    """Connection of one 3D tree edge to an edge of another (or same) tree."""

    tree: int
    edge: int
    nb_tree: int
    nb_edge: int
    flipped: bool  # along-edge direction reversed


@dataclass(frozen=True)
class CornerLink:
    """Connection of one tree corner to a corner of another (or same) tree."""

    tree: int
    corner: int
    nb_tree: int
    nb_corner: int


@dataclass(frozen=True)
class LinkTable:
    """Every macro link as one row of an integer affine map.

    An octant's or lattice point's *code* is ``tree * 3**dim + pattern``,
    with one base-3 digit per axis in ``pattern``: 0 inside, 1 on or
    beyond the low side, 2 the high side.  The links it crosses are the
    rows ``start[code]:start[code + 1]`` — one for a linked face, one per
    sharer of an edge or corner, none inside.  Row ``r`` maps target axis
    ``j`` into tree ``nb_tree[r]`` as ``sign[j, r] * x[src[j, r]] + scale *
    off[j, r] + hcoef[j, r] * h``: ``scale`` is ``N`` on the degree-``N``
    lattice, ``h`` an octant's side (0 for points).
    """

    dim: int
    start: np.ndarray
    nb_tree: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    off: np.ndarray
    hcoef: np.ndarray

    def cross(
        self,
        tree: np.ndarray,
        coords: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        scale: int = 1,
        h: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every link image of every item, in one batched apply.

        ``coords`` is ``(dim, n)``; ``low`` and ``high`` mark per axis the
        items on or beyond each side.  Returns ``(item, nb_tree, images)``:
        for image ``i``, the index of the item it maps, its tree, and its
        coordinates in column ``i`` of the ``(dim, m)`` images, ``item``
        ascending.
        """
        code = tree.astype(np.int64) * 3**self.dim
        for a in range(self.dim):
            code += low[a] * 3**a + high[a] * (2 * 3**a)
        lo = self.start[code]
        count = self.start[code + 1] - lo
        item = np.repeat(np.arange(len(code)), count)
        first = np.cumsum(count) - count
        row = np.arange(len(item)) + np.repeat(lo - first, count)
        # One axis at a time keeps the temporaries at one column each.
        img = np.empty((self.dim, len(row)), dtype=np.int64)
        h_item = None if h is None else h[item]
        for j, out in enumerate(img):
            np.multiply(self.sign[j, row], coords[self.src[j, row], item], out=out)
            out += scale * self.off[j, row]
            if h_item is not None:
                out += self.hcoef[j, row] * h_item
        return item, self.nb_tree[row], img


# The connectivity --------------------------------------------------------------


class Connectivity:
    """The static macro-structure of a forest (shared by all ranks).

    Parameters
    ----------
    dim:
        2 for quadtree forests, 3 for octree forests.
    vertices:
        ``(V, 3)`` float array of vertex positions.  Used only for geometry
        maps and visualization, never for topology.
    tree_to_vertex:
        ``(K, 2**dim)`` integer array: vertex id of each tree corner in
        z-order.  Trees sharing vertex ids are glued.
    extra_face_links:
        Optional explicit gluings ``(tree, face, nb_tree, nb_face,
        corner_map)`` for identifications that cannot be expressed by
        shared vertex ids (e.g. fully periodic single-tree domains).
    """

    def __init__(
        self,
        dim: int,
        vertices: np.ndarray,
        tree_to_vertex: np.ndarray,
        extra_face_links: Optional[
            Iterable[Tuple[int, int, int, int, Tuple[int, ...]]]
        ] = None,
        derive_faces: bool = True,
    ) -> None:
        self.dim = dim
        self.D = dimension(dim)
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.tree_to_vertex = np.asarray(tree_to_vertex, dtype=np.int64)
        if self.tree_to_vertex.ndim != 2 or self.tree_to_vertex.shape[1] != self.D.num_corners:
            raise ValueError("tree_to_vertex must be (K, 2**dim)")
        if len(self.tree_to_vertex) == 0:
            raise ValueError("connectivity needs at least one tree")
        if self.tree_to_vertex.min() < 0 or self.tree_to_vertex.max() >= len(self.vertices):
            raise ValueError("tree_to_vertex references unknown vertices")

        self.face_links: Dict[Tuple[int, int], FaceLink] = {}
        self.edge_links: Dict[Tuple[int, int], List[EdgeLink]] = {}
        self.corner_links: Dict[Tuple[int, int], List[CornerLink]] = {}
        self._build_face_links(extra_face_links or (), derive_faces)
        if dim == 3:
            self._build_edge_links()
        self._build_corner_links()
        self.links = self._build_link_table()

    # Properties ----------------------------------------------------------------

    @property
    def num_trees(self) -> int:
        return len(self.tree_to_vertex)

    def is_boundary_face(self, tree: int, face: int) -> bool:
        return (tree, face) not in self.face_links

    # Face link construction -----------------------------------------------------

    def _face_corner_vertices(self, tree: int, face: int) -> Tuple[int, ...]:
        return tuple(
            int(self.tree_to_vertex[tree, c]) for c in FACE_CORNERS[self.dim][face]
        )

    def _build_face_links(
        self,
        extra: Iterable[Tuple[int, int, int, int, Tuple[int, ...]]],
        derive_faces: bool = True,
    ) -> None:
        groups: Dict[FrozenSet[int], List[Tuple[int, int]]] = {}
        if derive_faces:
            for k in range(self.num_trees):
                for f in range(self.D.num_faces):
                    vids = self._face_corner_vertices(k, f)
                    if len(set(vids)) != len(vids):
                        # Degenerate face (repeated vertex): cannot derive a
                        # gluing from vertices; leave it to extra_face_links.
                        continue
                    groups.setdefault(frozenset(vids), []).append((k, f))

        pairs: List[Tuple[int, int, int, int, Tuple[int, ...]]] = []
        for vset, members in groups.items():
            if len(members) == 1:
                continue
            if len(members) > 2:
                raise ValueError(
                    f"face shared by more than two trees: {members} "
                    "(nonconforming, or a vertex-ambiguous periodic gluing; "
                    "pass explicit face links with derive_faces=False)"
                )
            (k, f), (k2, f2) = members
            my = self._face_corner_vertices(k, f)
            nb = self._face_corner_vertices(k2, f2)
            corner_map = tuple(nb.index(v) for v in my)
            pairs.append((k, f, k2, f2, corner_map))
        for k, f, k2, f2, corner_map in extra:
            pairs.append((k, f, k2, f2, tuple(corner_map)))

        for k, f, k2, f2, corner_map in pairs:
            self._add_face_pair(k, f, k2, f2, corner_map)

    def _add_face_pair(
        self, k: int, f: int, k2: int, f2: int, corner_map: Tuple[int, ...]
    ) -> None:
        fwd = self._face_transform(f, f2, corner_map)
        inv_map = tuple(corner_map.index(i) for i in range(len(corner_map)))
        bwd = self._face_transform(f2, f, inv_map)
        if (k, f) in self.face_links or (k2, f2) in self.face_links:
            raise ValueError(f"face ({k},{f}) or ({k2},{f2}) glued twice")
        self.face_links[(k, f)] = FaceLink(k, f, k2, f2, corner_map, fwd)
        self.face_links[(k2, f2)] = FaceLink(k2, f2, k, f, inv_map, bwd)

    def _face_transform(
        self, f: int, f2: int, corner_map: Tuple[int, ...]
    ) -> CellTransform:
        """Build the rigid map (my tree lattice -> neighbor lattice) for a
        face gluing with the given face-corner correspondence."""
        dim = self.dim
        L = self.D.root_len
        a, s = face_axis_side(f)
        a2, s2 = face_axis_side(f2)
        tang = face_tangential_axes(dim, f)
        tang2 = face_tangential_axes(dim, f2)

        perm = [0] * dim
        sign = [0] * dim
        offset = [0] * dim

        # Normal axis: outward depth t on my side becomes inward depth on
        # the neighbor side (see module docstring for the four cases).
        perm[a2] = a
        if s == 1 and s2 == 0:
            sign[a2], offset[a2] = 1, -L
        elif s == 1 and s2 == 1:
            sign[a2], offset[a2] = -1, 2 * L
        elif s == 0 and s2 == 0:
            sign[a2], offset[a2] = -1, 0
        else:  # s == 0, s2 == 1
            sign[a2], offset[a2] = 1, L

        # Tangential axes from the corner correspondence.
        j0 = corner_map[0]
        for kloc, my_axis in enumerate(tang):
            jd = corner_map[1 << kloc] ^ j0
            if jd not in (1, 2):
                raise ValueError(
                    f"face corner correspondence {corner_map} is not rigid"
                )
            kloc2 = 0 if jd == 1 else 1
            if dim == 2:
                kloc2 = 0  # only one tangential axis in 2D
            nb_axis = tang2[kloc2]
            flip = ((j0 >> kloc2) & 1) == 1
            perm[nb_axis] = my_axis
            sign[nb_axis] = -1 if flip else 1
            offset[nb_axis] = L if flip else 0

        return CellTransform(dim, tuple(perm), tuple(sign), tuple(offset))

    # Edge link construction -------------------------------------------------------

    def _build_edge_links(self) -> None:
        groups: Dict[FrozenSet[int], List[Tuple[int, int]]] = {}
        for k in range(self.num_trees):
            for e in range(12):
                c0, c1 = EDGE_CORNERS[e]
                v0 = int(self.tree_to_vertex[k, c0])
                v1 = int(self.tree_to_vertex[k, c1])
                if v0 == v1:
                    continue  # degenerate edge
                groups.setdefault(frozenset((v0, v1)), []).append((k, e))
        for vset, members in groups.items():
            if len(members) < 2:
                continue
            for k, e in members:
                c0, _ = EDGE_CORNERS[e]
                v0 = int(self.tree_to_vertex[k, c0])
                links = []
                for k2, e2 in members:
                    if (k2, e2) == (k, e):
                        continue
                    c0b, c1b = EDGE_CORNERS[e2]
                    v0b = int(self.tree_to_vertex[k2, c0b])
                    flipped = v0b != v0
                    links.append(EdgeLink(k, e, k2, e2, flipped))
                if links:
                    self.edge_links.setdefault((k, e), []).extend(links)

    # Corner link construction -------------------------------------------------------

    def _build_corner_links(self) -> None:
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for k in range(self.num_trees):
            for c in range(self.D.num_corners):
                v = int(self.tree_to_vertex[k, c])
                groups.setdefault(v, []).append((k, c))
        for v, members in groups.items():
            if len(members) < 2:
                continue
            for k, c in members:
                links = [
                    CornerLink(k, c, k2, c2)
                    for (k2, c2) in members
                    if (k2, c2) != (k, c)
                ]
                if links:
                    self.corner_links.setdefault((k, c), []).extend(links)

    # The link table -----------------------------------------------------------------

    def _build_link_table(self) -> LinkTable:
        """One :class:`LinkTable` row per link of every (tree, pattern)."""
        dim = self.dim
        L = self.D.root_len
        pin = ((0, 0, 0, 0), (0, 0, L, -1))  # inward of side 0 or 1: 0 or L - h
        links_of = {
            "inside": {},
            "face": self.face_links,
            "edge": self.edge_links,
            "corner": self.corner_links,
        }
        nb_tree: List[int] = []
        maps: List[List[Tuple[int, int, int, int]]] = []
        start = [0]
        for k in range(self.num_trees):
            for kind, number in _crossings(dim):
                found = links_of[kind].get((k, number))
                for link in () if found is None else [found] if kind == "face" else found:
                    nb_tree.append(link.nb_tree)
                    if kind == "face":
                        t = link.transform
                        row = [
                            (t.perm[j], t.sign[j], t.offset[j], -int(t.sign[j] < 0))
                            for j in range(dim)
                        ]
                    elif kind == "edge":
                        sides = sorted(edge_transverse_sides(link.nb_edge).items())
                        row = [pin[s] for _, s in sides]
                        a = edge_axis(link.edge)
                        along = (a, -1, L, -1) if link.flipped else (a, 1, 0, 0)
                        row.insert(edge_axis(link.nb_edge), along)
                    else:
                        row = [pin[(link.nb_corner >> a) & 1] for a in range(dim)]
                    maps.append(row)
                start.append(len(maps))
        cols = np.array(maps, dtype=np.int64).reshape(-1, dim, 4).transpose(2, 1, 0)
        arrays = [np.array(start, dtype=np.int64), np.array(nb_tree, dtype=np.int32)]
        arrays += [np.ascontiguousarray(c) for c in cols]
        for arr in arrays:
            arr.flags.writeable = False
        return LinkTable(dim, *arrays)

    # Validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency: mutual face links with inverse
        transforms that round-trip octants exactly."""
        L = self.D.root_len
        for (k, f), link in self.face_links.items():
            partner = self.face_links.get((link.nb_tree, link.nb_face))
            if partner is None:
                raise AssertionError(f"face link ({k},{f}) has no partner")
            if (partner.nb_tree, partner.nb_face) != (k, f):
                raise AssertionError(f"face link ({k},{f}) partner mismatch")
            comp = partner.transform.compose(link.transform)
            if not comp.is_identity():
                raise AssertionError(
                    f"face transforms of ({k},{f})<->({link.nb_tree},{link.nb_face}) "
                    "do not invert each other"
                )
            # Corner positions must map consistently: each face corner of f
            # transforms to the matched corner of the partner face.
            for i, ci in enumerate(FACE_CORNERS[self.dim][f]):
                pt = corner_coords(self.dim, ci, L)
                arrs = [np.array([p], dtype=np.int64) for p in pt]
                while len(arrs) < self.dim:
                    arrs.append(np.zeros(1, dtype=np.int64))
                img = link.transform.apply_points(arrs[: self.dim])
                cj = FACE_CORNERS[self.dim][link.nb_face][link.corner_map[i]]
                expect = corner_coords(self.dim, cj, L)
                got = tuple(int(a[0]) for a in img)
                if got != expect:
                    raise AssertionError(
                        f"face link ({k},{f}) corner {i}: {got} != {expect}"
                    )
