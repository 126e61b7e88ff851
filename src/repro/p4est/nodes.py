"""``Nodes``: globally unique numbering of continuous-Galerkin unknowns.

This is the paper's most intricate algorithm (§II-C/§II-E): construct a
globally unique numbering of the degree-``N`` tensor-product nodal
unknowns on a 2:1-balanced forest, identifying shared nodes across
elements, partition boundaries, and rotated inter-tree connections, and
recording the hanging-node structure that constrains non-conforming faces
and edges.

Representation.  Every node gets an integer *key* ``(tree, kx, ky, kz)``
on the N-scaled lattice: a degree-``N`` node with tensor index ``i`` along
an axis of an element at position ``x`` with lattice side ``h`` sits at
``k = N*x + i*h`` (always an integer).  Keys of coincident nodes of
different-size elements agree exactly, and no floating point enters any
identification decision.

Hanging entities.  A face of an element is *hanging* when its neighbor is
one level coarser; in 3D an edge can hang independently of its faces.
Following p4est's ``lnodes`` convention, the slots of a hanging entity do
not store the element's own trace values; they store the nodes of the
element's *parent* entity (which coincide with the coarse neighbor's
nodes, key-exactly).  The per-axis rule implementing this: a slot lying on
hanging entities takes, on each axis covered by one of those entities, the
parent-grid coordinate ``k = N*x_parent + i*(2h)`` instead of its own.
The discretization layer reconstructs the element's true trace by
interpolating the parent values (exact at coincident positions), which
enforces the continuity constraints of §II-E.

Families.  Both are computed per *family* — the leaves sharing a parent
— not per element, after the family-level traversal of Isaac et al.
(arXiv:1406.0089).  An element can only hang across its outward faces
and edges, and whether it does is a question about its parent's
same-size neighbour in that direction; so each distinct parent asks its
2*dim faces and (3D) 12 edges once (:func:`_hanging_flags`) — in 3D
18 questions, where its eight children asked 6 each — and each child
reads its answers off its child-id bits.  Every slot key of a family's
children lies on the family's ``(2N+1)^dim`` lattice ``N*X + j*h``
(``X`` the parent's corner, ``h`` the children's side): a child's own
coordinate is ``j = N*bit + i``, a parent-grid one ``j = 2*i``,
exactly.  So a slot is a (family, lattice point) pair found by one
table lookup on (child id, hanging pattern) (:func:`_family_tables`),
and only the distinct referenced points are turned into keys.

Canonicalization.  Keys on a tree boundary are mapped through every
face, edge and corner link they lie on, in one batched apply of the
connectivity's link table on the N-scaled lattice, and replaced by the
lexicographically smallest of themselves and their images (a segmented
minimum), so nodes shared between trees — in arbitrarily rotated frames
— collapse to one key, the paper's "canonicalized to the lowest numbered
octree".

Ownership.  The owner of a node is the rank owning the leaf that contains
the node's *probe cell* — the unit lattice cell at ``floor(k/N)`` (clamped
at the far boundary) in the canonical tree — computable by every rank from
the O(P) partition markers alone, and always a rank that references the
node.  Owned nodes are numbered consecutively per rank (exscan); copies
are resolved with one request/reply exchange which doubles as the setup
of the scatter/gather maps used by the cG solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.p4est.balance import dedup_octants, into_trees
from repro.p4est.bits import interleave
from repro.p4est.connectivity import (
    Connectivity,
    edge_axis,
    edge_transverse_sides,
    face_axis_side,
    face_tangential_axes,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import GhostLayer
from repro.p4est.octant import (
    Octants,
    is_ancestor_pairwise,
    merge_sorted_octants,
    searchsorted_octants,
)
from repro.parallel.comm import Comm
from repro.parallel.collectives import collective
from repro.parallel.ops import SUM
from repro.trace.tracer import PHASE_NODES, traced


@dataclass
class LNodes:
    """The result of :func:`lnodes`: local node numbering plus hanging info.

    Attributes
    ----------
    dim, degree:
        Spatial dimension and polynomial degree ``N``.
    element_nodes:
        ``(nelem, (N+1)**dim)`` local node ids per local element, slot
        order lexicographic with x fastest.  Slots of hanging entities
        reference the parent entity's (coarse neighbor's) nodes.
    keys:
        ``(nloc, 4)`` canonical integer keys ``(tree, kx, ky, kz)``.
    owner:
        Owning rank per local node.
    global_ids:
        Global number per local node.
    num_owned / global_offset / global_num_nodes:
        This rank's owned-node count, its first global number, and the
        global total.
    hanging_face:
        ``(nelem, 2*dim)`` int8: -1 if the face conforms, else the child
        position (0..2**(dim-1)-1) of this element within the parent face.
    hanging_edge:
        ``(nelem, 12)`` int8 (3D only): -1 or the child position (0/1)
        along the parent edge.
    send_map / recv_map:
        Scatter topology: ``send_map[r]`` lists my owned local node ids
        whose values rank ``r`` needs; ``recv_map[r]`` lists my local ids
        owned by rank ``r``.  Positionally aligned between the two sides.
    """

    dim: int
    degree: int
    element_nodes: np.ndarray
    keys: np.ndarray
    owner: np.ndarray
    global_ids: np.ndarray
    num_owned: int
    global_offset: int
    global_num_nodes: int
    hanging_face: np.ndarray
    hanging_edge: Optional[np.ndarray]
    send_map: Dict[int, np.ndarray] = field(default_factory=dict)
    recv_map: Dict[int, np.ndarray] = field(default_factory=dict)

    _my_rank: int = 0

    @property
    def num_local_nodes(self) -> int:
        """Number of nodes this rank references, owned or not."""
        return len(self.keys)

    def is_owned(self) -> np.ndarray:
        """Boolean mask over local nodes: owned by this rank."""
        return self.owner == self._my_rank

    @collective("method", "scatter_forward")
    def scatter_forward(self, comm: Comm, values: np.ndarray) -> np.ndarray:
        """Overwrite copies of remote-owned nodes with the owners' values.

        ``values`` has the local-node index as its first axis; owned
        entries are authoritative, non-owned entries are replaced.
        Collective.
        """
        values = np.array(values, copy=True)
        outbox = {r: np.ascontiguousarray(values[ids]) for r, ids in self.send_map.items()}
        inbox = comm.exchange(outbox)
        for r, payload in inbox.items():
            values[self.recv_map[r]] = payload
        return values

    @collective("method", "scatter_reverse_add")
    def scatter_reverse_add(self, comm: Comm, values: np.ndarray) -> np.ndarray:
        """Accumulate copies into owners (transpose of scatter_forward).

        Partial sums held at non-owned copies are added into the owners'
        entries; the copies' entries are then refreshed with the owners'
        totals via a forward scatter.  Collective.
        """
        values = np.array(values, copy=True)
        outbox = {r: np.ascontiguousarray(values[ids]) for r, ids in self.recv_map.items()}
        inbox = comm.exchange(outbox)
        for r, payload in inbox.items():
            np.add.at(values, self.send_map[r], payload)
        return self.scatter_forward(comm, values)


def _hanging_flags(conn: Connectivity, combined: Octants, parents: Octants) -> np.ndarray:
    """Which face and edge neighbours of each parent lie in a leaf of at
    most the parent's level: ``(len(_questions(dim)), nparents)`` bool.

    These are the hanging questions of the parents' children, asked once
    per family.  A leaf strictly coarser than a child ``e`` that contains
    ``e``'s outward neighbour ``N`` also contains ``parent(N)``, which is
    the parent's same-size neighbour in that direction; conversely a leaf
    containing ``parent(N)`` at most at the parent's level is strictly
    coarser than ``e`` and contains ``N``.  So the parent's 2*dim faces
    and (3D) 12 edges answer every outward question of every child, and
    :func:`_family_tables` reads each child's answers off its child-id
    bits.  Regions leaving the root cube go through the macro links in
    one batch (the tree transforms keep parent-aligned cells aligned, and
    map ``N`` into the image of ``parent(N)``); one bisect per region
    finds the leaf just before it, which is an improper ancestor exactly
    when the answer is yes.  Only the answers of directions some local
    child faces are read, and for those the leaf that holds the region
    touches that child, so it is local or a ghost.
    """
    offs = _questions(parents.dim)
    nq, n = len(offs), len(parents)
    H = parents.lens()
    x, y, z = (
        (col[None, :] + offs[:, a, None] * H).ravel()
        for a, col in enumerate((parents.x, parents.y, parents.z))
    )
    nb = Octants._wrap(
        parents.dim, np.tile(parents.tree, nq), x, y, z, np.tile(parents.level, nq)
    )
    # Region q * n + i asks question q of parent i; ``tags`` carries that
    # index to the images routed through the macro links.
    inside = nb.inside_root()
    tags, regions = into_trees(conn, nb, inside, inside, np.arange(nq * n))
    got = np.zeros(nq * n, dtype=bool)
    if len(regions):
        lo = searchsorted_octants(combined, regions, side="right")
        anc = combined[np.maximum(lo - 1, 0)]
        got[tags[(lo > 0) & is_ancestor_pairwise(anc, regions)]] = True
    return got.reshape(nq, n)


@traced(PHASE_NODES)
@collective("function", "lnodes")
def lnodes(forest: Forest, ghost: GhostLayer, degree: int) -> LNodes:
    """Construct the global cG node numbering (``Nodes``).

    Requires a fully 2:1-balanced forest (codim = dim) and its ghost
    layer.  Collective over ``forest.comm``.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    dim = forest.dim
    N = degree
    conn = forest.conn
    L = forest.D.root_len
    comm = forest.comm
    elems = forest.local
    nelem = len(elems)

    combined = merge_sorted_octants(elems, ghost.octants)

    # --- Families ---------------------------------------------------------------
    # An element's family is its parent (a level-0 element is its own).
    # Lattice point ``j`` of a family lies at ``N*X + j*unit`` per axis:
    # ``X`` the family's corner, ``unit`` its children's side.
    family, member = dedup_octants(
        elems.ancestors(np.maximum(elems.level - 1, 0)), return_inverse=True
    )
    one = np.empty(len(family), dtype=np.int64)  # one member of each family
    one[member] = np.arange(nelem)
    unit = elems.lens()[one]
    asks, face_table, edge_table, lattice = _family_tables(dim, N)

    # --- Hanging classification -------------------------------------------------
    # Child ``c`` of a family reads its pattern of outward answers off the
    # family's answers (``asks[c]``); the tables' row ``c * 2**nbits +
    # pattern`` gives its hanging arrays and its slots' lattice points.
    answers = np.zeros((len(_questions(dim)), len(family)), dtype=np.int64)
    parents = np.flatnonzero(elems.level[one] > 0)
    if len(parents):
        answers[:, parents] = _hanging_flags(conn, combined, family[parents])
    nbits = asks.shape[1]
    pattern = np.zeros((len(asks), len(family)), dtype=np.int64)
    for k in range(nbits):
        pattern |= answers[asks[:, k]] << k
    cid = elems.child_ids().astype(np.int64)
    row = (cid << nbits) | pattern[cid, member]
    hanging_face = face_table[row]
    hanging_edge = edge_table[row] if dim == 3 else None

    # --- Slot keys -----------------------------------------------------------------
    # Only the family lattice points some slot references get a key.
    side = 2 * N + 1
    npts = side**dim
    point = member[:, None] * npts + lattice[row]
    used = np.zeros(len(family) * npts, dtype=bool)
    used[point] = True
    pts = np.flatnonzero(used)
    fam, j = np.divmod(pts, npts)
    keys = np.zeros((4, len(pts)), dtype=np.int64)
    keys[0] = family.tree[fam]
    for a, x in enumerate((family.x, family.y, family.z)[:dim]):
        keys[1 + a] = N * x[fam] + (j // side**a % side) * unit[fam]

    # --- Unique local nodes ----------------------------------------------------------
    # Dedup the in-tree keys, canonicalize only the distinct ones, dedup
    # again and compose the inverses: a key's canonical image depends only
    # on the key.
    raw, raw_inverse = _unique_rows(keys.T)
    uniq, inverse = _unique_rows(_canonicalize_keys(conn, raw, N))
    node = np.empty(len(used), dtype=np.int64)
    node[pts] = inverse[raw_inverse]
    element_nodes = node[point]
    nloc = len(uniq)

    # --- Ownership ------------------------------------------------------------------
    probe = [np.minimum(uniq[:, 1 + a] // N, L - 1) for a in range(dim)]
    owner = forest.markers.owner_of_points(uniq[:, 0], interleave(dim, *probe))

    mine = comm.rank
    owned_mask = owner == mine
    num_owned = int(owned_mask.sum())
    global_offset = comm.exscan(num_owned, SUM)
    global_total = comm.allreduce(num_owned, SUM)

    global_ids = np.full(nloc, -1, dtype=np.int64)
    owned_idx = np.flatnonzero(owned_mask)
    # uniq is sorted lexicographically, so owned nodes are numbered in key
    # order — deterministic and rank-count independent within a partition.
    global_ids[owned_idx] = global_offset + np.arange(num_owned)

    # --- Resolve copies: request numbers from owners -----------------------------------
    recv_map: Dict[int, np.ndarray] = {}
    request_out: Dict[int, np.ndarray] = {}
    for r in np.unique(owner[~owned_mask]):
        ids = np.flatnonzero(owner == r)
        recv_map[int(r)] = ids
        request_out[int(r)] = uniq[ids]
    replies_in = comm.exchange(request_out)

    # Owners look requested keys up and reply with global numbers.
    send_map: Dict[int, np.ndarray] = {}
    reply_out: Dict[int, np.ndarray] = {}
    for r, req_keys in replies_in.items():
        pos = _lookup_keys(uniq, np.asarray(req_keys))
        if np.any(pos < 0):
            raise AssertionError(
                "node ownership probe selected a rank that does not "
                "reference the node (forest not fully balanced?)"
            )
        send_map[int(r)] = pos
        reply_out[int(r)] = global_ids[pos]
    numbers_in = comm.exchange(reply_out)
    for r, nums in numbers_in.items():
        global_ids[recv_map[int(r)]] = nums
    if np.any(global_ids < 0):
        raise AssertionError("unresolved global node numbers")

    result = LNodes(
        dim=dim,
        degree=N,
        element_nodes=element_nodes,
        keys=uniq,
        owner=owner,
        global_ids=global_ids,
        num_owned=num_owned,
        global_offset=int(global_offset),
        global_num_nodes=int(global_total),
        hanging_face=hanging_face,
        hanging_edge=hanging_edge,
        send_map=send_map,
        recv_map=recv_map,
    )
    result._my_rank = mine
    return result


@lru_cache(maxsize=None)
def _questions(dim: int) -> np.ndarray:
    """Unit offsets ``(2*dim + 12, 3)`` (the 12 edge rows in 3D only) of a
    parent's hanging questions: face ``f`` at row ``f``, edge ``e`` at row
    ``2*dim + e``."""
    offs = np.zeros((2 * dim + (12 if dim == 3 else 0), 3), dtype=np.int64)
    for f in range(2 * dim):
        axis, side = face_axis_side(f)
        offs[f, axis] = 2 * side - 1
    for e in range(12 if dim == 3 else 0):
        for a, side in edge_transverse_sides(e).items():
            offs[2 * dim + e, a] = 2 * side - 1
    offs.flags.writeable = False
    return offs


@lru_cache(maxsize=None)
def _family_tables(
    dim: int, N: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Static tables of one ``(dim, degree)``, by child id and pattern.

    A child's *pattern* has bit ``a`` set when its outward face on axis
    ``a`` hangs and, in 3D, bit ``dim + k`` when its edge along axis
    ``k``, outward on both other axes, hangs.  No other face or edge can
    hang on its own: one at a sibling's position lies in the parent, and
    a 3D edge with one outward move lies in the parent-sized cell across
    that face, which any coarser leaf holding it holds whole, so the face
    hangs too and the edge hangs with it.  Returns

    - ``asks`` ``(2**dim, nbits)``: the row of :func:`_questions` that
      answers each pattern bit of each child;
    - ``face`` ``(nrows, 2*dim)`` and ``edge`` ``(nrows, 12)`` int8, row
      ``cid * 2**nbits + pattern``: -1 if conforming, else the child's
      position within the parent face (its child-id bits on the face's
      tangential axes) or along the parent edge (its bit on the edge's
      axis).  An edge next to a hanging face hangs with it;
    - ``lattice`` ``(nrows, (N+1)**dim)``: each slot's point on the
      family lattice, ``sum_a j_a * (2N+1)**a``, slots lexicographic with
      x fastest.  A slot takes the parent-grid coordinate on every axis
      covered by a hanging face or edge it lies on.
    """
    nc, nfaces, nedges = 1 << dim, 2 * dim, 12 if dim == 3 else 0
    bit = (np.arange(nc)[:, None] >> np.arange(dim)) & 1
    asks = [2 * a + bit[:, a] for a in range(dim)]
    if dim == 3:
        asks += [
            nfaces + 4 * k + bit[:, a] + 2 * bit[:, b]
            for k, (a, b) in enumerate(((1, 2), (0, 2), (0, 1)))
        ]
    asks = np.stack(asks, axis=1)
    nbits = asks.shape[1]
    pattern = (np.arange(1 << nbits)[:, None] >> np.arange(nbits)) & 1 > 0
    hang = np.zeros((nc, 1 << nbits, nfaces + nedges), dtype=bool)
    for c in range(nc):
        hang[c][:, asks[c]] = pattern
    if nedges:
        adjacent = np.array([_edge_adjacent_faces(e) for e in range(nedges)])
        hang[:, :, nfaces:] |= hang[:, :, adjacent[:, 0]] | hang[:, :, adjacent[:, 1]]

    position = np.zeros((nc, nfaces + nedges), dtype=np.int64)
    for f in range(nfaces):
        for k, a in enumerate(face_tangential_axes(dim, f)):
            position[:, f] += bit[:, a] << k
    for e in range(nedges):
        position[:, nfaces + e] = bit[:, edge_axis(e)]
    marks = np.where(hang, position[:, None, :], -1).astype(np.int8)
    marks = marks.reshape(-1, nfaces + nedges)

    index = np.array(list(np.ndindex(*(N + 1,) * dim)))[:, ::-1]
    on_parent_grid = np.zeros(hang.shape[:2] + index.shape, dtype=bool)
    for f in range(nfaces):
        axis, side = face_axis_side(f)
        on = index[:, axis] == side * N
        for a in face_tangential_axes(dim, f):
            on_parent_grid[..., a] |= hang[:, :, f, None] & on
    for e in range(nedges):
        on = np.logical_and.reduce(
            [index[:, a] == side * N for a, side in edge_transverse_sides(e).items()]
        )
        on_parent_grid[..., edge_axis(e)] |= hang[:, :, nfaces + e, None] & on
    j = np.where(on_parent_grid, 2 * index, N * bit[:, None, None, :] + index)
    lattice = (j @ (2 * N + 1) ** np.arange(dim)).reshape(len(marks), len(index))

    out = (asks, marks[:, :nfaces], marks[:, nfaces:], lattice)
    for arr in out:
        arr.flags.writeable = False
    return out


def _edge_adjacent_faces(e: int) -> Tuple[int, int]:
    """The two faces of an octant containing edge ``e``."""
    sides = edge_transverse_sides(e)
    faces = tuple(2 * a + s for a, s in sorted(sides.items()))
    return faces  # type: ignore[return-value]


def _unique_rows(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(arr, axis=0, return_inverse=True)`` for node keys.

    Identical output (rows sorted in numeric lexicographic order, the
    order the global numbering depends on) for non-negative
    ``(tree, kx, ky, kz)`` rows.  Node keys are multiples of a common
    power of two (the finest element's side), and divided by it the
    coordinates are small: packed with the tree as bit fields of one
    int64 word, whose numeric order is the rows' order, they are sorted
    by one quicksort of the words.  Rows whose word would not fit in 63
    bits take ``np.unique``.
    """
    n = len(arr)
    if n == 0:
        return arr.copy(), np.empty(0, dtype=np.int64)
    common = int(np.bitwise_or.reduce(arr[:, 1:], axis=None))
    shift = (common & -common).bit_length() - 1 if common else 0
    bits = (int(arr[:, 1:].max()) >> shift).bit_length()
    if int(arr[:, 0].max()).bit_length() + 3 * bits > 63:
        uniq, inverse = np.unique(arr, axis=0, return_inverse=True)
        return uniq, inverse.reshape(-1)
    word = arr[:, 0].copy()
    for c in (1, 2, 3):
        word <<= bits
        word |= arr[:, c] >> shift
    order = np.argsort(word)
    word = word[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(word[1:], word[:-1], out=first[1:])
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return arr[order[first]], inverse


def _lookup_keys(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row indices of ``queries`` in the lexicographically sorted key
    array; -1 where absent."""
    if len(queries) == 0:
        return np.empty(0, dtype=np.int64)
    view = _rows_view(sorted_keys)
    qview = _rows_view(np.ascontiguousarray(queries))
    pos = np.searchsorted(view, qview)
    pos = np.clip(pos, 0, len(view) - 1)
    found = view[pos] == qview
    return np.where(found, pos, -1).astype(np.int64)


def _rows_view(arr: np.ndarray) -> np.ndarray:
    """View an (n, 4) int64 array as n void records for row comparisons."""
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    return arr.view([("", np.int64)] * arr.shape[1]).reshape(-1)


def _canonicalize_keys(conn: Connectivity, keys: np.ndarray, N: int) -> np.ndarray:
    """Replace each key by the lexicographically smallest of itself and
    its images across the tree links (faces/edges/corners), on the
    N-scaled lattice.

    Every boundary key crosses its links in one batched apply of the link
    table; the images come grouped by key, and one segmented minimum per
    column, each over the images tied on the columns before it, gives
    their lexicographic minimum.
    """
    dim = conn.dim
    pts = keys[:, 1 : 1 + dim].T
    item, tree, img = conn.links.cross(
        keys[:, 0], pts, pts == 0, pts == N * conn.D.root_len, scale=N
    )
    if not len(item):
        return keys.copy()
    images = np.zeros((len(item), 4), dtype=np.int64)
    images[:, 0] = tree
    images[:, 1 : 1 + dim] = img.T
    new = np.r_[True, item[1:] != item[:-1]]
    first = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    best = np.empty((len(first), 4), dtype=np.int64)
    tied = np.ones(len(item), dtype=bool)
    for c in range(4):
        col = np.where(tied, images[:, c], np.iinfo(np.int64).max)
        best[:, c] = np.minimum.reduceat(col, first)
        tied &= col == best[seg, c]
    rows = item[first]
    smaller = _lex_less(best, keys[rows])
    keys = keys.copy()
    keys[rows[smaller]] = best[smaller]
    return keys


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise lexicographic a < b for (n, 4) integer arrays."""
    less = np.zeros(len(a), dtype=bool)
    tie = np.ones(len(a), dtype=bool)
    for c in range(a.shape[1]):
        less |= tie & (a[:, c] < b[:, c])
        tie &= a[:, c] == b[:, c]
    return less
