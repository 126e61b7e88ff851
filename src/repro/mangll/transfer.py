"""Solution transfer between forest meshes (adapt and repartition).

When the forest is refined/coarsened, per-element nodal dG fields must
follow: values on refined elements are evaluated by interpolating the old
element's polynomial at the children's node positions; values on
coarsened elements are the reference-space L2 projection of the children
(conservative in the reference measure).  Both directions reduce to one
cached *nested interpolation matrix* per (level offset, child position)
signature, so transfer is a handful of batched matmuls.

Repartition transfer is positional: octant rows travel with their octants
through ``Forest.partition(carry=...)``.

The old and new leaf sets must cover the same region per rank and be
nested (each new element equals, refines, or coarsens old elements) —
exactly the situation after ``refine`` / ``coarsen`` / ``balance``, all
of which act locally.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.mangll.quadrature import (
    gauss_legendre,
    gauss_lobatto,
    lagrange_interpolation_matrix,
)
from repro.p4est.octant import Octants, is_ancestor_pairwise, searchsorted_octants
from repro.trace.tracer import PHASE_TRANSFER, traced


@lru_cache(maxsize=4096)
def nested_project_1d(nq: int, leveldiff: int, offset: int) -> np.ndarray:
    """1D exact L2 projection of a descendant's nodal values onto the
    ancestor's basis: the child's contribution operator ``P_c`` such that
    ``p = sum_c P_c q_c`` reproduces ancestor-degree polynomials exactly
    and conserves the reference-space integral.
    """
    xi, _ = gauss_lobatto(nq)
    ng = nq + 1
    tg, wg = gauss_legendre(ng)
    s = 0.5**leveldiff
    lo = 2.0 * s * offset - 1.0
    xg = lo + s * (tg + 1.0)  # child Gauss points in ancestor coords
    A = lagrange_interpolation_matrix(xi, xg)  # ancestor basis at them
    B = lagrange_interpolation_matrix(xi, tg)  # child values at them
    E = lagrange_interpolation_matrix(xi, tg)
    M = E.T @ (wg[:, None] * E)  # consistent mass on [-1, 1]
    R = s * (A.T @ (wg[:, None] * B))
    return np.linalg.solve(M, R)


def nested_project_matrix(
    dim: int, nq: int, leveldiff: int, offsets: Tuple[int, ...]
) -> np.ndarray:
    """Tensor L2-projection contribution of one descendant cell."""
    mats = [nested_project_1d(nq, leveldiff, offsets[a]) for a in range(dim)]
    out = mats[0]
    for a in range(1, dim):
        out = np.kron(mats[a], out)
    return out


@lru_cache(maxsize=4096)
def nested_interp_1d(nq: int, leveldiff: int, offset: int) -> np.ndarray:
    """1D interpolation from an ancestor's LGL nodes to a descendant's.

    The descendant is ``leveldiff`` levels deeper at child-offset
    ``offset`` (0 <= offset < 2**leveldiff) along the axis.
    """
    xi, _ = gauss_lobatto(nq)
    scale = 0.5**leveldiff
    # Descendant occupies [o*2s - 1, (o+1)*2s - 1] in ancestor coords.
    lo = 2.0 * scale * offset - 1.0
    pts = lo + scale * (xi + 1.0)
    return lagrange_interpolation_matrix(xi, pts)


def nested_interp_matrix(
    dim: int, nq: int, leveldiff: int, offsets: Tuple[int, ...]
) -> np.ndarray:
    """Tensor interpolation from ancestor nodes to descendant nodes.

    Node ordering is lexicographic x fastest on both sides.
    """
    mats = [nested_interp_1d(nq, leveldiff, offsets[a]) for a in range(dim)]
    out = mats[0]
    for a in range(1, dim):
        out = np.kron(mats[a], out)
    return out


@traced(PHASE_TRANSFER)
def transfer_nodal_fields(
    old_octants: Octants,
    q_old: np.ndarray,
    new_octants: Octants,
    degree: int,
) -> np.ndarray:
    """Transfer per-element nodal fields from the old leaf set to the new.

    ``q_old`` has shape (nelem_old, npts[, nfields]); the result matches
    ``new_octants``.  Purely local (no communication).
    """
    dim = old_octants.dim
    nq = degree + 1
    npts = nq**dim
    squeeze = q_old.ndim == 2
    if squeeze:
        q_old = q_old[..., None]
    nf = q_old.shape[-1]
    if q_old.shape[:2] != (len(old_octants), npts):
        raise ValueError("q_old shape does not match old octants/degree")
    q_new = np.zeros((len(new_octants), npts, nf))
    if len(new_octants) == 0:
        return q_new[..., 0] if squeeze else q_new

    # Classify each new element against the old set.
    pos_eq = searchsorted_octants(old_octants, new_octants, side="left")
    pos_eq_c = np.minimum(pos_eq, len(old_octants) - 1)
    cand = old_octants[pos_eq_c]
    eq = (
        (cand.tree == new_octants.tree)
        & (cand.x == new_octants.x)
        & (cand.y == new_octants.y)
        & (cand.z == new_octants.z)
        & (cand.level == new_octants.level)
    )
    q_new[eq] = q_old[pos_eq_c[eq]]

    rest = np.flatnonzero(~eq)
    if len(rest) == 0:
        return q_new[..., 0] if squeeze else q_new

    sub = new_octants[rest]
    # FINER: new element strictly inside an old one (the leaf just before).
    posr = searchsorted_octants(old_octants, sub, side="right")
    anc_idx = np.maximum(posr - 1, 0)
    anc = old_octants[anc_idx]
    finer = (posr > 0) & is_ancestor_pairwise(anc, sub) & (anc.level < sub.level)

    # Group FINER by (leveldiff, offsets) for batched interpolation.
    if finer.any():
        f_idx = rest[finer]
        f_anc = anc_idx[finer]
        fo = new_octants[f_idx]
        ao = old_octants[f_anc]
        k = (fo.level - ao.level).astype(np.int64)
        hn = fo.lens()
        offs = [
            ((getattr(fo, c) - getattr(ao, c)) // hn).astype(np.int64)
            for c in ("x", "y", "z")
        ]
        sig = k.copy()
        for a in range(dim):
            sig = sig * (1 << 20) + offs[a]
        for s in np.unique(sig):
            grp = np.flatnonzero(sig == s)
            kk = int(k[grp[0]])
            off = tuple(int(offs[a][grp[0]]) for a in range(dim))
            M = nested_interp_matrix(dim, nq, kk, off)
            q_new[f_idx[grp]] = np.einsum("qs,esf->eqf", M, q_old[f_anc[grp]])

    # COARSER: new element contains several old ones -> exact reference
    # L2 projection (conserves the reference integral, reproduces
    # element-degree polynomials).
    coarser = ~finer
    if coarser.any():
        c_new = rest[coarser]
        co = new_octants[c_new]
        lo = searchsorted_octants(old_octants, co, side="right")
        hi = searchsorted_octants(old_octants, co.last_descendants(), side="right")
        for j, newi in enumerate(c_new):
            a, b = int(lo[j]), int(hi[j])
            if a >= b:
                raise ValueError("new element has no old counterpart (not nested)")
            no = new_octants[np.array([newi])]
            acc = np.zeros((npts, nf))
            for oi in range(a, b):
                oo = old_octants[np.array([oi])]
                kk = int(oo.level[0] - no.level[0])
                hn = int(oo.lens()[0])
                off = tuple(
                    int((getattr(oo, c)[0] - getattr(no, c)[0]) // hn)
                    for c in ("x", "y", "z")
                )[:dim]
                acc += nested_project_matrix(dim, nq, kk, off) @ q_old[oi]
            q_new[newi] = acc

    return q_new[..., 0] if squeeze else q_new
