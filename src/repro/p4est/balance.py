"""2:1 balance across faces, edges, and corners, within and between trees.

``Balance`` (paper §II-C) refines octants locally until no leaf differs by
more than one level from any neighbor, where "neighbor" includes octants
in other trees reached through macro-face, -edge, or -corner connections
with arbitrary rotations.

The algorithm iterates a bulk-synchronous round until a global fixpoint:

1. every rank generates *constraints* from the families of its seed
   leaves — for each distinct parent of a seed of level ``l >= 2`` and
   each neighbor direction, the parent's same-size neighbor ``Q``,
   mapped into the neighbor trees when it lies outside the parent's own
   tree (one batched apply of the connectivity's :class:`LinkTable`),
   and emitted as its first child (``Q``'s anchor at level ``l``).
   Round 1 seeds every leaf; a later round seeds only the leaves the
   previous round created.  Positions at a sibling of the parent are
   skipped: their proper ancestors are the grandparent and above, never
   a leaf;
2. constraints are routed to the ranks owning any leaf overlapping them
   (SFC owner search) with one sparse exchange;
3. each rank refines any leaf that is a *proper ancestor* of a constraint
   region with ``level < constraint.level - 1`` (in a valid leaf set this
   is the only way a leaf can violate 2:1 against the region), repeating
   locally until stable;
4. a logical-or allreduce of "created a leaf" decides whether another
   round is needed.  Splitting only makes leaves finer, so a region that
   held stays held: every violation left after a round has its finer
   leaf among that round's new leaves, and the seeded rounds split
   exactly what full generation would.

Refinement is monotone and bounded by ``maxlevel``, so the loop
terminates; at the fixpoint the 2:1 condition holds globally by
construction.  :func:`is_balanced` re-runs the full generation (every
leaf, every direction) in check-only mode and is used by the tests as an
independent verifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.p4est.bits import group_order
from repro.p4est.connectivity import Connectivity
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.parallel.collectives import collective
from repro.p4est.octant import (
    Octants,
    all_neighbor_offsets,
    is_ancestor_pairwise,
    merge_sorted_octants,
    neighborhood,
    searchsorted_octants,
)
from repro.parallel.ops import LAND, LOR
from repro.trace.tracer import PHASE_BALANCE, traced


def generate_neighbor_regions(
    conn: Connectivity, leaves: Octants, codim: int, min_level: int = 0
) -> Octants:
    """Same-size neighbor regions of all leaves, across codimensions
    1..codim, mapped into valid tree coordinates.

    Regions beyond an unconnected tree boundary are dropped, as are
    regions of level below ``min_level`` (a region has its leaf's level,
    so those leaves generate nothing).  The result may contain
    duplicates; callers dedup as needed.
    """
    leaves = _at_least(leaves, min_level)
    if not len(leaves):
        return Octants.empty(conn.dim)
    # One batched shift over every (codim, direction) offset at once; the
    # former per-offset loop built 26 small arrays per call in 3D.
    _, nb = neighborhood(leaves, codim)
    inside = nb.inside_root()
    return into_trees(conn, nb, inside, inside)[1]


def _constraint_regions(conn: Connectivity, leaves: Octants, codim: int) -> Octants:
    """Balance's regions of ``leaves``: one parent-level neighbourhood per
    family, each region ``Q`` emitted as its first child.

    A leaf ``c`` of level ``l`` is violated through a same-size region
    ``R`` iff some leaf properly contains ``parent(R)``
    (:func:`_enforce_constraints`' test).  Outside ``c``'s parent ``p``,
    ``parent(R)`` ranges over the neighbours of ``p`` that touch ``c``;
    over the family that is ``p``'s whole codim-``<= codim``
    neighbourhood.  ``Q``'s first child has exactly ``Q``'s violators
    under the same test, so routing and enforcement are unchanged.  A
    later round's seed families are complete (a split creates every
    child); in round 1 a ``Q`` touching only non-leaf children of ``p``
    is implied by a deeper seed's region inside ``Q``.  The positions at
    a sibling of ``p`` are skipped (their proper ancestors are ``p``'s
    parent and above, never a leaf), and exterior ``Q`` are mapped at the
    parent level: the tree transforms keep parent-aligned cells aligned.
    """
    leaves = _at_least(leaves, 2)
    if not len(leaves):
        return Octants.empty(conn.dim)
    parents = dedup_octants(leaves.parents())
    _, nb = neighborhood(parents, codim)
    # Offset ``o`` reaches a sibling iff on every axis it moves along, the
    # parent's child-id bit points back into the grandparent (bit 0 moves
    # +1, bit 1 moves -1).  Offset-major, like ``neighborhood``.
    offs = all_neighbor_offsets(conn.dim, codim)
    axis_bit = 1 << np.arange(3)
    moved = (offs != 0) @ axis_bit
    back = (offs < 0) @ axis_bit
    cid = parents.child_ids()
    sibling = ((cid[None, :] & moved[:, None]) == back[:, None]).ravel()
    inside = nb.inside_root()
    _, q = into_trees(conn, nb, inside, inside & ~sibling)
    return Octants._wrap(q.dim, q.tree, q.x, q.y, q.z, q.level + 1)


def _at_least(leaves: Octants, min_level: int) -> Octants:
    """The leaves of level ``>= min_level`` (``leaves`` itself if all)."""
    if min_level > 0 and len(leaves) and leaves.level.min() < min_level:
        return leaves[leaves.level >= min_level]
    return leaves


def into_trees(
    conn: Connectivity,
    nb: Octants,
    inside: np.ndarray,
    keep: np.ndarray,
    src: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], Octants]:
    """``nb[keep]`` (``keep`` implies ``inside``) followed by the link
    images of every region outside its root.

    With ``src`` (one value per region of ``nb``, such as the leaf it was
    generated from) each output region's ``src`` value comes first in
    the pair; without, ``None`` does.
    """
    out = np.flatnonzero(~inside)
    routed, img = route_exterior_indexed(
        conn, nb[out], out if src is None else src[out]
    )
    kept = nb[keep]
    if not len(img):
        regions = kept
    elif not len(kept):
        regions = img
    else:
        regions = Octants.concat([kept, img])
    if src is None:
        return None, regions
    return np.concatenate([src[keep], routed]), regions


def route_exterior_indexed(
    conn: Connectivity, ext: Octants, src_idx: np.ndarray
) -> Tuple[np.ndarray, Octants]:
    """Map exterior octants through the face, edge and corner links of
    their tree, carrying the caller's per-octant source indices.

    An octant outside one axis crosses its face's link, outside two axes
    (3D) every link of its edge, outside all axes every link of its
    corner: the rows of the connectivity's :class:`LinkTable` under its
    (tree, boundary pattern) code.  One ``np.repeat`` by link count and
    one batched affine apply map them all.  Returns ``(source index,
    image)`` pairs as one index array and one :class:`Octants`, ordered by
    exterior octant and then by link; an octant beyond an unconnected
    boundary has none.
    """
    dim = conn.dim
    L = conn.D.root_len
    coords = np.stack([ext.x, ext.y, ext.z][:dim])
    item, tree, img = conn.links.cross(
        ext.tree, coords, coords < 0, coords >= L, h=ext.lens()
    )
    zero = [np.zeros(len(item), dtype=np.int64)] * (3 - dim)
    return src_idx[item], Octants._wrap(
        dim, tree, *img, *zero, ext.level[item]
    )


def dedup_octants(octs: Octants, return_inverse: bool = False):
    """Sort and deduplicate an octant array (one gather, not two).

    With ``return_inverse``, returns ``(distinct, inverse)``, where
    ``distinct[inverse[i]]`` is ``octs[i]`` — Nodes groups its elements
    into families this way, Balance only needs the distinct parents.
    """
    n = len(octs)
    if n < 2 and not return_inverse:
        return octs
    t, k = octs.tree, octs.keys()
    order = None
    if not octs.is_sorted():  # sorted, e.g. one already-sorted inbox part
        # Quicksort the keys, then group by tree: same (tree, key) order
        # as ``sort_order()`` but ~2x faster than lexsort's all-stable
        # passes.  Tie order among equal keys is unobservable here — a
        # (tree, key) pair fully determines the octant, and duplicates are
        # removed below.
        a = np.argsort(k)
        order = a[group_order(t[a])]
        t, k = t[order], k[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    first[1:] = (t[1:] != t[:-1]) | (k[1:] != k[:-1])
    distinct = octs[first if order is None else order[first]]
    if not return_inverse:
        return distinct
    rank = np.cumsum(first) - 1
    if order is None:
        return distinct, rank
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = rank
    return distinct, inverse


def split_by_dest(dests: np.ndarray, src: np.ndarray, n: int):
    """Group ``(dest rank, source index)`` pairs by destination.

    Deduplicates the pairs and yields ``(rank, ascending unique source
    indices)`` per destination in ascending rank order — the flat-array
    replacement for the former ``setdefault``-accumulated send sets of
    Ghost and Balance.  ``n`` is the exclusive bound on source indices.
    """
    if not len(dests):
        return
    n = max(int(n), 1)
    pair = np.unique(dests.astype(np.int64) * n + src)
    d = pair // n
    s = pair - d * n
    cut = np.flatnonzero(d[1:] != d[:-1]) + 1
    starts = np.concatenate([[0], cut])
    ends = np.concatenate([cut, [len(d)]])
    for a, b in zip(starts, ends):
        yield int(d[a]), s[a:b]


def _enforce_constraints(leaves: Octants, constraints: Octants) -> Tuple[Octants, Octants]:
    """Refine leaves violating the constraints until locally stable.

    A leaf violates a constraint region C iff the leaf is a proper
    ancestor of C with ``leaf.level < C.level - 1``; then the leaf is
    split.  Returns the updated leaf set and the leaves this call
    created (empty if nothing changed).
    """
    old = leaves
    # Constraints of level <= 1 can never force a refinement.
    keep = constraints.level > 1
    constraints = constraints[keep]
    while len(constraints) and len(leaves):
        pos = searchsorted_octants(leaves, constraints, side="right")
        cand = np.maximum(pos - 1, 0)
        has_prev = pos > 0
        anc = leaves[cand]
        viol = (
            has_prev
            & is_ancestor_pairwise(anc, constraints)
            & (anc.level < constraints.level - 1)
        )
        if not viol.any():
            break
        mask = np.zeros(len(leaves), dtype=bool)
        mask[cand[viol]] = True
        split = leaves[mask].children()
        rest = leaves[~mask]
        # ``split`` is itself in SFC order (children of sorted, disjoint
        # parents) and disjoint from ``rest``, so a linear merge replaces
        # the former full re-sort of the leaf array.
        leaves = merge_sorted_octants(rest, split) if len(rest) else split
    if leaves is old:
        return leaves, Octants.empty(leaves.dim)
    # Each leaf descends from the old leaf preceding it on the SFC; the
    # new ones are those strictly deeper than it.
    pos = searchsorted_octants(old, leaves, side="right")
    return leaves, leaves[leaves.level > old.level[pos - 1]]


def route_to_owners(forest: Forest, regions: Octants) -> Octants:
    """Exchange ``regions`` so each rank receives the regions that overlap
    its leaf segment; returns the received (deduplicated) set.

    Every region is sent to each rank in its inclusive owner range, which
    by the SFC ownership argument covers every rank holding a leaf that
    intersects the region.  The calling rank's own share stays octants
    and never goes through the wire; the other ranks' shares go in one
    sparse exchange, made on every rank (empty on a lone one).
    """
    comm = forest.comm
    outbox: Dict[int, np.ndarray] = {}
    received: List[Octants] = []
    if comm.size == 1:
        # A lone rank owns every region.
        received.append(regions)
    elif len(regions):
        dests, src = forest.owner_segments(regions)
        for p, idxs in split_by_dest(dests, src, len(regions)):
            if p == comm.rank:
                received.append(regions[idxs])
            else:
                outbox[p] = octants_to_wire(regions[idxs])
    inbox = comm.exchange(outbox)
    received += [octants_from_wire(forest.dim, w) for w in inbox.values()]
    received = [part for part in received if len(part)]
    if not received:
        return Octants.empty(forest.dim)
    if len(received) == 1:  # keeps the part's cached keys
        return dedup_octants(received[0])
    return dedup_octants(Octants.concat(received))


def _violations(leaves: Octants, constraints: Octants) -> np.ndarray:
    """Boolean per constraint: some leaf is >1 level coarser than it.

    In a valid leaf set the only leaf that can contain a constraint region
    is the one immediately preceding it on the SFC.
    """
    if not len(leaves) or not len(constraints):
        return np.zeros(len(constraints), dtype=bool)
    pos = searchsorted_octants(leaves, constraints, side="right")
    cand = np.maximum(pos - 1, 0)
    anc = leaves[cand]
    return (
        (pos > 0)
        & is_ancestor_pairwise(anc, constraints)
        & (anc.level < constraints.level - 1)
    )


@traced(PHASE_BALANCE)
@collective("function", "balance")
def balance(forest: Forest, codim: Optional[int] = None) -> int:
    """Enforce 2:1 neighbor size relations globally (``Balance``).

    ``codim`` selects the adjacency: 1 = faces only, 2 = faces+edges
    (3D) or faces+corners (2D), 3 = full corner balance in 3D.  Default
    is the full balance (``dim``), matching the paper's usage.  Returns
    the number of bulk-synchronous rounds.
    """
    dim = forest.dim
    codim = dim if codim is None else codim
    if not 1 <= codim <= dim:
        raise ValueError(f"codim must be in [1, {dim}]")
    comm = forest.comm
    rounds = 0
    seeds = forest.local
    while True:
        rounds += 1
        regions = dedup_octants(_constraint_regions(forest.conn, seeds, codim))
        constraints = route_to_owners(forest, regions)
        forest.local, seeds = _enforce_constraints(forest.local, constraints)
        if not comm.allreduce(bool(len(seeds)), LOR):
            break
    forest._refresh_counts()
    return rounds


@collective("function", "is_balanced")
def is_balanced(forest: Forest, codim: Optional[int] = None) -> bool:
    """Collectively check the 2:1 condition without modifying the forest."""
    dim = forest.dim
    codim = dim if codim is None else codim
    regions = generate_neighbor_regions(
        forest.conn, forest.local, codim, min_level=2
    )
    regions = dedup_octants(regions)
    constraints = route_to_owners(forest, regions)
    ok = not _violations(forest.local, constraints).any()
    return bool(forest.comm.allreduce(ok, LAND))
