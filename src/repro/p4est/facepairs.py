"""Flat enumeration of the face interfaces of a leaf set.

One pass over flat octant arrays visits, for every local leaf and every
face, what lies across it: the domain boundary, a same-size leaf, a coarser
leaf (my face hangs) or the finer leaves touching the face.  Partners are
found in ``local + ghost`` by the bisections of :mod:`repro.p4est.octant`;
regions that leave the tree are routed through the connectivity's face
links, one batched :meth:`CellTransform.apply_octants` per distinct
transform.

The row order is a contract, because consumers accumulate in it: face-major;
within a face the boundary rows, then same-size, coarser and finer partners,
each by ascending element, the finer leaves of one face in SFC order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.p4est.connectivity import CellTransform, Connectivity, face_axis_side
from repro.p4est.octant import Octants, is_ancestor_pairwise, searchsorted_octants

# Interface kinds, seen from the element that owns the row.
CONFORMING = 0
FINE = 1  # my face hangs; the partner is coarser
COARSE = 2  # the partner is finer and touches my face
BOUNDARY = 3


@dataclass
class FacePairs:
    """One row per (element, face, partner); int64 columns of equal length.

    ``elem`` indexes the local leaves, ``partner`` the combined array the
    search ran against (-1 on boundary rows).  ``transform_id`` indexes
    ``transforms``: 0 is "same tree" (``None``), the others are the distinct
    face-link transforms taking the element's tree into the partner's.
    """

    kind: np.ndarray
    face: np.ndarray
    elem: np.ndarray
    partner: np.ndarray
    transform_id: np.ndarray
    transforms: List[Optional[CellTransform]]


def partner_face(face: int, transform: Optional[CellTransform]) -> int:
    """The partner's face that coincides with my ``face`` under ``transform``."""
    axis, side = face_axis_side(face)
    if transform is None:
        return 2 * axis + (1 - side)
    j = transform.perm.index(axis)
    return 2 * j + (side if transform.sign[j] < 0 else 1 - side)


def apply_transforms(
    transforms: List[Optional[CellTransform]], transform_id: np.ndarray, octs: Octants
) -> List[np.ndarray]:
    """``[x, y, z]`` of ``octs`` with row i mapped by ``transforms[transform_id[i]]``
    (id 0 leaves it where it is): one batched call per distinct transform."""
    xyz = [octs.x.copy(), octs.y.copy(), octs.z.copy()]
    for t in np.unique(transform_id):
        if t == 0:
            continue
        sel = np.flatnonzero(transform_id == t)
        img = transforms[t].apply_octants(octs[sel], 0)
        for col, new in zip(xyz, (img.x, img.y, img.z)):
            col[sel] = new
    return xyz


def face_pairs(conn: Connectivity, local: Octants, combined: Octants) -> FacePairs:
    """Enumerate the face interfaces of ``local`` against ``combined``.

    ``combined`` holds the candidate partners (local leaves then ghosts, in
    any order); a region nothing in it overlaps yields no row.
    """
    num_faces = local.D.num_faces
    order = combined.sort_order()
    leaves = combined[order]
    leaf_xyz = np.stack([leaves.x, leaves.y, leaves.z])
    leaf_h = leaves.lens()
    h = local.lens()

    transforms: List[Optional[CellTransform]] = [None]
    ids: Dict[CellTransform, int] = {}
    link_id = np.zeros((conn.num_trees, num_faces), dtype=np.int64)
    link_tree = np.zeros((conn.num_trees, num_faces), dtype=np.int32)
    for (tree, f), link in conn.face_links.items():
        if link.transform not in ids:
            ids[link.transform] = len(transforms)
            transforms.append(link.transform)
        link_id[tree, f] = ids[link.transform]
        link_tree[tree, f] = link.nb_tree

    cols: List[List[np.ndarray]] = [[], [], [], [], []]

    def emit(kind: int, f: int, elem, partner, tid) -> None:
        rows = (np.full(len(elem), kind), np.full(len(elem), f), elem, partner, tid)
        for col, values in zip(cols, rows):
            col.append(np.asarray(values, dtype=np.int64))

    for f in range(num_faces):
        # Same-size neighbor regions; a face region leaves the root cube in
        # exactly one axis, so face links route every exterior one.
        nb = local.face_neighbors(f)
        inside = nb.inside_root()
        tid = np.where(inside, 0, link_id[local.tree, f])
        xyz = apply_transforms(transforms, tid, nb)
        tree = np.where(tid > 0, link_tree[local.tree, f], local.tree)
        valid = inside | (tid > 0)
        bidx = np.flatnonzero(~valid)
        emit(BOUNDARY, f, bidx, np.full(len(bidx), -1), tid[bidx])

        vidx = np.flatnonzero(valid)
        regs = Octants(
            local.dim, tree[vidx], *(c[vidx] for c in xyz), local.level[vidx]
        )
        # Same-size or coarser partner: the leaf at/before the region.
        # Finer partners: the leaves strictly inside it.
        lo = searchsorted_octants(leaves, regs, side="right")
        hi = searchsorted_octants(leaves, regs.last_descendants(), side="right")
        cand = np.maximum(lo - 1, 0)
        anc = leaves[cand]
        has = (lo > 0) & is_ancestor_pairwise(anc, regs)
        same = has & (anc.level == regs.level)
        for kind, rows in ((CONFORMING, same), (FINE, has & ~same)):
            e = vidx[rows]
            emit(kind, f, e, order[cand[rows]], tid[e])

        fj = np.flatnonzero((hi > lo) & ~same)
        cnt = hi[fj] - lo[fj]
        rep = np.repeat(fj, cnt)
        k = lo[rep] + np.arange(len(rep)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        e = vidx[rep]
        # Only leaves on the region's near plane touch my face: the plane
        # of the partner face, in the region's (= partner tree's) frame.
        pf = np.array([partner_face(f, t) for t in transforms])[tid[e]]
        raxis, rside = pf >> 1, pf & 1
        reg_xyz = np.stack([regs.x, regs.y, regs.z])
        touch = leaf_xyz[raxis, k] + rside * leaf_h[k] == (
            reg_xyz[raxis, rep] + rside * h[e]
        )
        emit(COARSE, f, e[touch], order[k[touch]], tid[e][touch])

    kind, face, elem, partner, tid = (np.concatenate(c) for c in cols)
    return FacePairs(kind, face, elem, partner, tid, transforms)
