"""Curvilinear element geometry on a forest: coordinates and metric terms.

``build_mesh`` evaluates a :class:`~repro.mangll.geometry.Geometry` at the
tensor-product LGL nodes of every local *and ghost* element (ghost
geometry is recomputable locally because the map is global and
deterministic — no coordinates ever travel over the network), and derives
the metric terms spectrally: ``dx/dxi`` from the differentiation matrix
applied to the coordinate fields, then the inverse metric and volume
Jacobian it keeps; face normals and surface Jacobians follow per face.

Node ordering is lexicographic with x fastest, matching
:mod:`repro.p4est.nodes`; face nodes are ordered by the tangential axes
ascending, lower axis fastest ("face z-order").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.mangll.geometry import Geometry
from repro.mangll.quadrature import differentiation_matrix, gauss_lobatto
from repro.p4est.connectivity import face_axis_side, face_tangential_axes
from repro.p4est.forest import Forest
from repro.p4est.ghost import GhostLayer
from repro.p4est.octant import Octants, searchsorted_octants


@lru_cache(maxsize=128)
def face_node_indices(dim: int, nq: int, face: int) -> np.ndarray:
    """Volume-node indices of a face, in face z-order (immutable cache)."""
    axis, side = face_axis_side(face)
    fixed = 0 if side == 0 else nq - 1
    idx = []
    tang = face_tangential_axes(dim, face)
    if dim == 2:
        (t,) = tang
        for i in range(nq):
            coord = [0, 0]
            coord[axis] = fixed
            coord[t] = i
            idx.append(coord[0] + nq * coord[1])
    else:
        t1, t2 = tang
        for j in range(nq):
            for i in range(nq):
                coord = [0, 0, 0]
                coord[axis] = fixed
                coord[t1] = i
                coord[t2] = j
                idx.append(coord[0] + nq * (coord[1] + nq * coord[2]))
    out = np.array(idx, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass
class Mesh:
    """Geometry and metric data for local (+ghost) elements.

    Arrays are indexed by the combined element index: local elements
    first (``0..nelem_local-1``), then ghosts: ``npts * (pdim + dim**2 +
    1)`` floats an element.  Face tables are derived on demand.
    """

    dim: int
    degree: int
    nelem_local: int
    nelem_ghost: int
    octants: Octants  # local then ghost, concatenated
    coords: np.ndarray  # (nelem_tot, npts, pdim)
    jinv: np.ndarray  # (nelem_tot, npts, dim, dim): dxi/dx
    detj: np.ndarray  # (nelem_tot, npts)
    weights: np.ndarray  # tensor quadrature weights (npts,)
    geometry: Geometry  # the map the arrays were evaluated from

    @property
    def nq(self) -> int:
        """LGL nodes per element edge (``degree + 1``)."""
        return self.degree + 1

    @property
    def npts(self) -> int:
        """Volume nodes per element (``nq ** dim``)."""
        return self.nq**self.dim

    @property
    def nelem_total(self) -> int:
        """Local plus ghost elements: the row count of every array."""
        return self.nelem_local + self.nelem_ghost

    def face_normals(self, face: int) -> Tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and surface Jacobians on ``face``.

        Returns (normals (nelem_tot, nfpts, dim), sjac (nelem_tot, nfpts)).
        The surface Jacobian includes the area scaling only; quadrature
        weights are separate (:meth:`face_weights`).
        """
        axis, side = face_axis_side(face)
        fidx = face_node_indices(self.dim, self.nq, face)
        jinv_f = self.jinv[:, fidx]  # dxi/dx at face nodes
        detj_f = self.detj[:, fidx]
        # Reference outward normal is -+ e_axis; physical normal direction
        # is J^{-T} n_ref with magnitude detJ |J^{-T} n_ref| as area factor.
        sign = -1.0 if side == 0 else 1.0
        nvec = sign * jinv_f[:, :, axis, :]  # row `axis` of dxi/dx
        mag = np.linalg.norm(nvec, axis=-1)
        normals = nvec / np.maximum(mag, 1e-300)[..., None]
        sjac = detj_f * mag
        return normals, sjac

    def face_weights(self) -> np.ndarray:
        """Tensor LGL quadrature weights on a reference face (nfpts,)."""
        _, w = gauss_lobatto(self.nq)
        if self.dim == 2:
            return w.copy()
        return np.kron(w, w)  # t2 slow, t1 fast: matches face z-order

    def element_volumes(self) -> np.ndarray:
        """Quadrature volume of each element (nelem_tot,)."""
        return (self.detj * self.weights[None, :]).sum(axis=1)


def reference_nodes(dim: int, degree: int) -> np.ndarray:
    """Tensor LGL nodes in [0,1]^dim, lexicographic x fastest: (npts, dim)."""
    x, _ = gauss_lobatto(degree + 1)
    x01 = 0.5 * (x + 1.0)
    grids = np.meshgrid(*[x01] * dim, indexing="ij")  # slowest axis first
    return np.column_stack([g.ravel() for g in reversed(grids)])


def build_mesh(
    forest: Forest,
    geometry: Geometry,
    degree: int,
    ghost: Optional[GhostLayer] = None,
    previous: Optional[Mesh] = None,
) -> Mesh:
    """Evaluate geometry and metrics for local (and ghost) elements.

    Elements that ``previous`` (a mesh of the same geometry and degree,
    typically the one an adapt is replacing) already holds, as local or
    ghost, are copied from it; the map is deterministic, so the result is
    the same arrays bit for bit with or without ``previous``.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    dim = forest.dim
    if ghost is not None and len(ghost.octants):
        octs = Octants.concat([forest.local, ghost.octants])
    else:
        octs = forest.local.copy()
    nelem_local = len(forest.local)
    nelem = len(octs)
    npts = (degree + 1) ** dim
    pdim = 3 if dim == 3 else 2

    # Row of ``previous`` holding each element, or -1.
    src = np.full(nelem, -1, dtype=np.int64)
    if previous is not None and len(previous.octants):
        if (previous.geometry, previous.dim, previous.degree) != (geometry, dim, degree):
            raise ValueError("previous mesh has another geometry, dim or degree")
        order = previous.octants.sort_order()
        held = previous.octants[order]
        pos = np.minimum(searchsorted_octants(held, octs), len(held) - 1)
        same = (held.tree[pos] == octs.tree) & (held.keys()[pos] == octs.keys())
        src[same] = order[pos[same]]
    kept, fresh = np.flatnonzero(src >= 0), np.flatnonzero(src < 0)

    coords = np.empty((nelem, npts, pdim))
    jinv = np.empty((nelem, npts, dim, dim))
    det = np.empty((nelem, npts))
    coords[fresh], jinv[fresh], det[fresh] = _element_geometry(
        octs[fresh], geometry, degree
    )
    if previous is not None:
        rows = src[kept]
        coords[kept], jinv[kept] = previous.coords[rows], previous.jinv[rows]
        det[kept] = previous.detj[rows]

    # Tensor quadrature weights on [-1,1]^dim, matching dx/dxi with
    # xi in [-1,1] (D differentiates nodal values w.r.t. xi directly).
    _, w1 = gauss_lobatto(degree + 1)
    w = w1.copy()
    for _ in range(dim - 1):
        w = np.kron(w1, w)  # slowest axis outermost; x fastest overall

    return Mesh(
        dim=dim,
        degree=degree,
        nelem_local=nelem_local,
        nelem_ghost=nelem - nelem_local,
        octants=octs,
        coords=coords,
        jinv=jinv,
        detj=det,
        weights=w,
        geometry=geometry,
    )


def _element_geometry(
    octs: Octants, geometry: Geometry, degree: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(coords, jinv, detj)`` of ``octs``: the map at the LGL nodes,
    one ``map_points`` call per tree, and its metric terms."""
    dim, nq = octs.dim, degree + 1
    npts = nq**dim
    pdim = 3 if dim == 3 else 2
    ref = reference_nodes(dim, degree)  # (npts, dim) in [0,1], x fastest
    h = octs.lens().astype(np.float64)
    base = np.stack([octs.x, octs.y, octs.z], axis=1)[:, :dim].astype(np.float64)
    u = (base[:, None, :] + ref[None] * h[:, None, None]) / octs.D.root_len
    coords = np.empty((len(octs), npts, pdim))
    for tree in np.unique(octs.tree):
        sel = np.flatnonzero(octs.tree == tree)
        p = geometry.map_points(int(tree), u[sel].reshape(-1, dim))
        coords[sel] = p[:, :pdim].reshape(len(sel), npts, pdim)

    # Metric terms by spectral differentiation along each reference axis.
    jac = _metric_terms(coords, dim, nq, pdim)
    if dim == 2:
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        jinv = np.empty_like(jac)
        jinv[..., 0, 0] = jac[..., 1, 1]
        jinv[..., 0, 1] = -jac[..., 0, 1]
        jinv[..., 1, 0] = -jac[..., 1, 0]
        jinv[..., 1, 1] = jac[..., 0, 0]
        jinv /= det[..., None, None]
    else:
        det = np.linalg.det(jac)
        jinv = np.linalg.inv(jac)
    if np.any(det <= 0):
        raise ValueError("non-positive Jacobian determinant (inverted element)")
    return coords, jinv, det


def _metric_terms(coords: np.ndarray, dim: int, nq: int, pdim: int) -> np.ndarray:
    """dx/dxi at every node via the LGL differentiation matrix.

    ``coords`` is (nelem, npts, pdim) with x-fastest lexicographic nodes;
    xi are the [-1,1] reference coordinates.
    """
    D = differentiation_matrix(nq)
    nelem, npts, _ = coords.shape
    jac = np.empty((nelem, npts, pdim, dim))
    if dim == 2:
        xg = coords.reshape(nelem, nq, nq, pdim)  # [e, ky, kx, c]
        ddx = np.einsum("ai,eyic->eyac", D, xg)  # derivative along kx
        ddy = np.einsum("aj,ejxc->eaxc", D, xg)  # derivative along ky
        jac[..., 0] = ddx.reshape(nelem, npts, pdim)
        jac[..., 1] = ddy.reshape(nelem, npts, pdim)
    else:
        xg = coords.reshape(nelem, nq, nq, nq, pdim)  # [e, kz, ky, kx, c]
        ddx = np.einsum("ai,ezyic->ezyac", D, xg)
        ddy = np.einsum("aj,ezjxc->ezaxc", D, xg)
        ddz = np.einsum("ak,ekyxc->eayxc", D, xg)
        jac[..., 0] = ddx.reshape(nelem, npts, pdim)
        jac[..., 1] = ddy.reshape(nelem, npts, pdim)
        jac[..., 2] = ddz.reshape(nelem, npts, pdim)
    return jac
