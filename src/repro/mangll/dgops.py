"""Nodal discontinuous-Galerkin operators on adaptive forest meshes.

Implements the dG machinery of §II-E: all unknowns live per element on
tensor LGL nodes; fluxes across faces need the neighbor's trace, found by
binary search in the local octant storage or the ghost layer; traces are
aligned across inter-tree faces (arbitrary rotations) and interpolated on
2:1 non-conforming faces ("the unknowns on the larger face are
interpolated to align with the unknowns on the four connecting smaller
faces").

One generic *trace-transfer matrix* covers every case: evaluate the
partner's tensor Lagrange basis at my evaluation points expressed in the
partner's face coordinates (integer-exact mapping through the tree
transforms).  For conforming faces the matrix degenerates to a
permutation; for hanging faces it is the parent-to-child interpolation;
orientation flips and axis swaps fall out of the coordinate mapping.
Face pairs sharing a geometric *signature* (faces, level offset, relative
anchor, transform) share one matrix, so flux evaluation batches into a
handful of einsums per signature.

Non-conforming flux evaluation happens at the fine side's nodes
(mortar = fine face).  The fine element lifts directly; the coarse
element lifts through the transposed interpolation against the fine
side's surface metric, which keeps the scheme conservative.  Every rank
computes only its own elements' residuals from local + ghost data — no
flux values ever travel over the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mangll.mesh import Mesh
from repro.mangll.quadrature import gauss_lobatto, lagrange_interpolation_matrix
from repro.p4est.connectivity import (
    CellTransform,
    face_axis_side,
    face_tangential_axes,
)
from repro.p4est.facepairs import (  # the mortar kinds are the interface kinds
    BOUNDARY,
    COARSE,
    CONFORMING,
    FINE,
    apply_transforms,
    face_pairs,
    partner_face,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import GhostLayer
from repro.p4est.octant import Octant


@dataclass
class MortarBatch:
    """A batch of face pairs sharing one trace-transfer signature.

    ``eminus`` are local element indices whose residual this batch lifts
    into; ``eplus`` are combined (local+ghost) partner indices.  Flux is
    evaluated at the *eval side*'s face nodes: the minus side for
    CONFORMING/FINE/BOUNDARY, the plus (fine) side for COARSE.
    """

    kind: int
    fminus: int
    fplus: int
    eminus: np.ndarray
    eplus: np.ndarray
    transfer: Optional[np.ndarray]  # maps the *other* side's trace to eval pts


class DGSpace:
    """Discontinuous Galerkin operator space over a forest mesh."""

    def __init__(
        self, forest: Forest, ghost: GhostLayer, mesh: Mesh, degree: int
    ) -> None:
        if degree != mesh.degree:
            raise ValueError("mesh degree mismatch")
        self.forest = forest
        self.ghost = ghost
        self.mesh = mesh
        self.degree = degree
        self.dim = forest.dim
        self.nq = degree + 1
        self.nfp = self.nq ** (self.dim - 1)
        self.batches: List[MortarBatch] = []
        self._build()

    # --- Construction ---------------------------------------------------------

    def _build(self) -> None:
        """Group the face pairs into batches of one trace-transfer signature.

        The signature is the pair's relative geometry in partner coordinates,
        in units of the smaller cell, plus faces and transform.  Batches come
        in the order the enumeration first meets each signature and keep its
        row order: that is the kernel's accumulation order.  The matrix is
        evaluated on a batch's first pair, through absolute float
        coordinates, so it belongs to that representative and no other.
        """
        local, combined = self.forest.local, self.mesh.octants
        fp = face_pairs(self.forest.conn, local, combined)
        me = local[fp.elem]
        po = combined[np.maximum(fp.partner, 0)]
        img = apply_transforms(fp.transforms, fp.transform_id, me)
        hs = np.minimum(me.lens(), po.lens())
        rel = [(c - p) // hs for c, p in zip(img, (po.x, po.y, po.z))]
        sig = np.stack(
            [fp.kind, fp.face, fp.transform_id, *rel, me.level - po.level], axis=1
        )
        sig[fp.kind == BOUNDARY, 3:] = 0
        _, first, group = np.unique(sig, axis=0, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        group = rank[group.reshape(-1)]
        rows = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[rows], np.arange(len(first) + 1))
        eminus, eplus = fp.elem[rows], fp.partner[rows]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            r = rows[lo]
            kind, f = int(fp.kind[r]), int(fp.face[r])
            transform = fp.transforms[fp.transform_id[r]]
            fplus, transfer = -1, None
            if kind != BOUNDARY:
                fplus = partner_face(f, transform)
                transfer = self._transfer_matrix(
                    kind, f, fplus, me.octant(r), po.octant(r), transform
                )
            self.batches.append(
                MortarBatch(kind, f, fplus, eminus[lo:hi], eplus[lo:hi], transfer)
            )

    def _transfer_matrix(
        self,
        kind: int,
        f: int,
        fplus: int,
        me: Octant,
        po: Octant,
        transform: Optional[CellTransform],
    ) -> np.ndarray:
        """Map the *source* side's face-nodal trace to values at the eval
        points.

        CONFORMING/FINE: eval at my face nodes; source = partner trace.
        COARSE: eval at the partner (fine child) face nodes; source = my
        trace.  Entries are tensor Lagrange evaluations; exact 0/1 for
        aligned nodes.
        """
        dim, nq, nfp = self.dim, self.nq, self.nfp
        xi, _ = gauss_lobatto(nq)
        t01 = 0.5 * (xi + 1.0)

        def face_node_coords(o: Octant, face: int) -> np.ndarray:
            """Physical-lattice (float) coords of face nodes, (nfp, dim)."""
            axis, side = face_axis_side(face)
            hlen = o.len(dim)
            pts = np.tile(np.array([o.x, o.y, o.z], dtype=np.float64)[:dim], (nfp, 1))
            pts[:, axis] += hlen * side
            # Face z-order: the lower tangential axis runs fastest.
            for m, t in enumerate(face_tangential_axes(dim, face)):
                pts[:, t] += hlen * t01[(np.arange(nfp) // nq**m) % nq]
            return pts

        # Eval points in the source element's tree coordinates.
        if kind in (CONFORMING, FINE):
            eval_pts, src_o, src_f = face_node_coords(me, f), po, fplus
            to_source = transform
        else:  # COARSE: eval at the partner's nodes, mapped back to my tree
            eval_pts, src_o, src_f = face_node_coords(po, fplus), me, f
            to_source = transform.inverse() if transform is not None else None
        if to_source is not None:
            img = to_source.apply_points([eval_pts[:, a] for a in range(dim)], scale=1)
            eval_pts = np.column_stack(img[:dim])

        # Express eval points in the source element's face parameter, then
        # evaluate the source face's tensor Lagrange basis there.
        base = np.array([src_o.x, src_o.y, src_o.z], dtype=np.float64)
        hlen = src_o.len(dim)
        mats = [
            lagrange_interpolation_matrix(xi, 2.0 * ((eval_pts[:, a] - base[a]) / hlen) - 1.0)
            for a in face_tangential_axes(dim, src_f)
        ]
        if dim == 2:
            return mats[0]
        # Source face nodes: (i, j) over the tangential axes, i fast.
        M1, M2 = mats  # each (nfp, nq) with per-point rows
        return (M2[:, :, None] * M1[:, None, :]).reshape(nfp, nfp)

    # --- Residual evaluation -----------------------------------------------------

    def exchange_ghost_fields(self, comm, q: np.ndarray) -> np.ndarray:
        """Combined (local+ghost) field array from the local one.

        Collective whenever there is more than one rank: a rank without
        ghosts (or without elements) still enters the exchange its
        neighbours are in.
        """
        if comm.size == 1:
            return q
        gq = self.ghost.exchange_octant_data(comm, q)
        return np.concatenate([q, gq], axis=0)

    def lift_scale(self) -> np.ndarray:
        """Inverse diagonal mass: 1 / (w_i detJ_i) per local element node."""
        m = self.mesh
        return 1.0 / (m.weights[None, :] * m.detj[: m.nelem_local])
