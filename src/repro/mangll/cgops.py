"""Continuous-Galerkin operators on adaptive forest meshes.

Builds on ``Nodes`` (paper §II-E): element matrices are assembled over the
global cG numbering with hanging-node constraints applied at the element
level.  For an element with hanging faces/edges, its slots hold the
*parent* entity's independent unknowns (see :mod:`repro.p4est.nodes`); the
constraint operator ``R_e`` evaluates the element's true nodal trace from
those parent values (tensor child-interpolation), so the assembled system
involves independent unknowns only:

    ``A = sum_e R_e^T A_e R_e``,  ``b = sum_e R_e^T b_e``.

Rows/columns live on each rank's local node ids; the distributed matvec
is a local sparse product followed by a reverse-add scatter over shared
nodes, and inner products reduce over owned nodes (one allreduce).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mangll.mesh import Mesh, face_node_indices
from repro.mangll.quadrature import (
    child_interpolation_matrices,
    differentiation_matrix,
)
from repro.p4est.connectivity import (
    edge_axis,
    edge_transverse_sides,
    face_axis_side,
    face_tangential_axes,
)
from repro.p4est.nodes import LNodes
from repro.parallel.comm import Comm
from repro.parallel.ops import SUM


@lru_cache(maxsize=64)
def gradient_matrices(dim: int, nq: int) -> Tuple[np.ndarray, ...]:
    """Dense nodal derivative operators along each reference axis."""
    D = differentiation_matrix(nq)
    I = np.eye(nq)
    if dim == 2:
        return (np.kron(I, D), np.kron(D, I))
    return (
        np.kron(I, np.kron(I, D)),
        np.kron(I, np.kron(D, I)),
        np.kron(np.kron(D, I), I),
    )


@lru_cache(maxsize=256)
def edge_node_indices(nq: int, edge: int) -> np.ndarray:
    """Volume-node indices along a 3D element edge, in axis order."""
    axis = edge_axis(edge)
    sides = edge_transverse_sides(edge)
    coord = [0, 0, 0]
    for a, s in sides.items():
        coord[a] = 0 if s == 0 else nq - 1
    idx = []
    for i in range(nq):
        c = list(coord)
        c[axis] = i
        idx.append(c[0] + nq * (c[1] + nq * c[2]))
    out = np.array(idx, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def hanging_operator(
    dim: int, nq: int, hf: Tuple[int, ...], he: Tuple[int, ...]
) -> np.ndarray:
    """Element constraint operator R for a hanging configuration.

    ``hf[f]`` is -1 or the child position within the parent face; ``he``
    likewise per edge (3D; pass () in 2D).  Rows of R on hanging entities
    interpolate the parent values stored in the entity's slots; all other
    rows are identity.
    """
    npts = nq**dim
    R = np.eye(npts)
    I0, I1 = child_interpolation_matrices(nq)
    kids = (I0, I1)
    for f, pos in enumerate(hf):
        if pos < 0:
            continue
        fidx = face_node_indices(dim, nq, f)
        if dim == 2:
            M = kids[pos]
        else:
            M = np.kron(kids[(pos >> 1) & 1], kids[pos & 1])
        R[fidx, :] = 0.0
        R[np.ix_(fidx, fidx)] = M
    if dim == 3:
        for e, pos in enumerate(he):
            if pos < 0:
                continue
            # Rows on edges inside a hanging face were already set by the
            # face (consistently); only set rows not covered by a face.
            fa, fb = _edge_faces(e)
            if hf[fa] >= 0 or hf[fb] >= 0:
                continue
            eidx = edge_node_indices(nq, e)
            R[eidx, :] = 0.0
            R[np.ix_(eidx, eidx)] = kids[pos]
    return R


def _edge_faces(e: int) -> Tuple[int, int]:
    sides = edge_transverse_sides(e)
    return tuple(2 * a + s for a, s in sorted(sides.items()))  # type: ignore


class AssemblyPlan(NamedTuple):
    """Node-pair CSR pattern of a space's element couplings.

    Row ``n`` of the pattern holds the nodes ``indices[indptr[n]:indptr[n+1]]``
    (ascending) that share an element with node ``n``; ``slot[e, i, j]``
    is the position in ``indices`` of the pair ``(nodes_e[i], nodes_e[j])``.
    """

    indptr: np.ndarray  # (nloc + 1,)
    indices: np.ndarray  # (npairs,)
    slot: np.ndarray  # (nelem * npts * npts,), (e, i, j)-ordered


class CGSpace:
    """Continuous Galerkin function space over a forest mesh + LNodes.

    Applications construct it directly; its element kernels are the only
    implementation (the kernel compiler lowers the dG RHS alone).
    """

    def __init__(self, mesh: Mesh, ln: LNodes, comm: Comm) -> None:
        if ln.degree != mesh.degree:
            raise ValueError("LNodes/mesh degree mismatch")
        self.mesh = mesh
        self.ln = ln
        self.comm = comm
        self.dim = mesh.dim
        self.nq = mesh.degree + 1
        self.npts = self.nq**self.dim
        self._constraint_groups: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._component_R: Dict[int, List[np.ndarray]] = {}
        self._plan: Optional[AssemblyPlan] = None
        self._gradients: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # --- Element constraint operators ----------------------------------------------

    def element_R(self, e: int) -> np.ndarray:
        """Constraint operator ``R_e`` of local element ``e`` (the
        per-element reference of :meth:`constraint_groups`)."""
        hf = tuple(int(v) for v in self.ln.hanging_face[e])
        he = (
            tuple(int(v) for v in self.ln.hanging_edge[e])
            if self.ln.hanging_edge is not None
            else ()
        )
        return hanging_operator(self.dim, self.nq, hf, he)

    def constraint_groups(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Non-conforming local elements grouped by hanging configuration.

        Returns ``(elements, R)`` pairs: ascending element ids sharing the
        constraint operator ``R``.  Conforming elements (``R = I``) are in
        no group, so consumers skip them exactly.  Computed once per space.
        """
        if self._constraint_groups is None:
            nelem = self.mesh.nelem_local
            nf = 2 * self.dim
            config = self.ln.hanging_face[:nelem]
            if self.ln.hanging_edge is not None:
                config = np.hstack([config, self.ln.hanging_edge[:nelem]])
            uniq, inverse = np.unique(config, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            self._constraint_groups = [
                (
                    np.flatnonzero(inverse == g),
                    hanging_operator(
                        self.dim,
                        self.nq,
                        tuple(int(v) for v in row[:nf]),
                        tuple(int(v) for v in row[nf:]),
                    ),
                )
                for g, row in enumerate(uniq)
                if (row >= 0).any()
            ]
        return self._constraint_groups

    def _constraint_operators(self, comps: int) -> List[np.ndarray]:
        """``R ⊗ I_comps`` for each constraint group, computed once per
        space and component count."""
        if comps not in self._component_R:
            eye = np.eye(comps)
            self._component_R[comps] = [
                np.kron(R, eye) for _, R in self.constraint_groups()
            ]
        return self._component_R[comps]

    def element_values(self, x: np.ndarray) -> np.ndarray:
        """Values at each element's geometric nodes, ``R_e x[nodes_e]``.

        ``x`` is nodal, ``(nloc,)`` or ``(nloc, ncomp)``; the result is
        ``(nelem, npts)`` or ``(nelem, npts, ncomp)``.
        """
        out = x[self.ln.element_nodes[: self.mesh.nelem_local]]
        for elems, R in self.constraint_groups():
            out[elems] = np.einsum("ij,ej...->ei...", R, out[elems])
        return out

    # --- Assembly -----------------------------------------------------------------

    def assembly_plan(self) -> AssemblyPlan:
        """The node-pair pattern of :meth:`assemble_matrix`, built once per
        space: one ``np.unique`` over the ``(nodes_e[i], nodes_e[j])`` keys."""
        if self._plan is None:
            nelem = self.mesh.nelem_local
            nloc = self.ln.num_local_nodes
            en = self.ln.element_nodes[:nelem].astype(np.int64)
            keys = (en[:, :, None] * nloc + en[:, None, :]).ravel()
            pairs, slot = np.unique(keys, return_inverse=True)
            indptr = np.zeros(nloc + 1, dtype=np.int64)
            np.cumsum(np.bincount(pairs // nloc, minlength=nloc), out=indptr[1:])
            self._plan = AssemblyPlan(indptr, pairs % nloc, slot.ravel())
        return self._plan

    def assemble_matrix(
        self, elem_mats: np.ndarray, row_comps: int = 1, col_comps: int = 1
    ) -> sp.csr_matrix:
        """Assemble per-element dense matrices into the local sparse system.

        ``elem_mats`` is ``(nelem, npts * row_comps, npts * col_comps)``
        with components interleaved node-major (dof ``node * comps + c``),
        as is the assembled ``(nloc * row_comps, nloc * col_comps)`` matrix.
        Every entry is summed in element order, as an element loop would.
        """
        nelem = self.mesh.nelem_local
        nr, nc = self.npts * row_comps, self.npts * col_comps
        if elem_mats.shape != (nelem, nr, nc):
            raise ValueError("elem_mats has wrong shape")
        nloc = self.ln.num_local_nodes
        groups = self.constraint_groups()
        if groups:
            elem_mats = elem_mats.copy()
        Rrs = self._constraint_operators(row_comps)
        Rcs = self._constraint_operators(col_comps)
        for (elems, _), Rr, Rc in zip(groups, Rrs, Rcs):
            elem_mats[elems] = Rr.T @ elem_mats[elems] @ Rc
        # One bincount per component pair sums the (e, i, j)-ordered
        # entries of each node pair in element order.
        plan = self.assembly_plan()
        npairs = len(plan.indices)
        blocks = elem_mats.reshape(nelem, self.npts, row_comps, self.npts, col_comps)
        data = np.empty((npairs, row_comps, col_comps))
        for a in range(row_comps):
            for b in range(col_comps):
                data[:, a, b] = np.bincount(
                    plan.slot, weights=blocks[:, :, a, :, b].ravel(), minlength=npairs
                )
        shape = (nloc * row_comps, nloc * col_comps)
        if row_comps == col_comps == 1:
            return sp.csr_matrix((data.reshape(npairs), plan.indices, plan.indptr), shape=shape)
        return sp.bsr_matrix((data, plan.indices, plan.indptr), shape=shape).tocsr()

    def assemble_vector(self, elem_vecs: np.ndarray) -> np.ndarray:
        """Assemble per-element load vectors ``(nelem, npts[, ncomp])``;
        returns a *partial* ``(nloc[, ncomp])`` vector (shared rows
        incomplete until reverse-add scattered)."""
        nelem = self.mesh.nelem_local
        groups = self.constraint_groups()
        if groups:
            elem_vecs = elem_vecs.copy()
        for elems, R in groups:
            elem_vecs[elems] = np.einsum("ji,ej...->ei...", R, elem_vecs[elems])
        out = np.zeros((self.ln.num_local_nodes,) + elem_vecs.shape[2:])
        np.add.at(
            out,
            self.ln.element_nodes[:nelem].ravel(),
            elem_vecs.reshape((nelem * self.npts,) + elem_vecs.shape[2:]),
        )
        return out

    def assemble_vector_summed(self, elem_vecs: np.ndarray) -> np.ndarray:
        """Assembled vector with shared contributions accumulated globally."""
        return self.ln.scatter_reverse_add(self.comm, self.assemble_vector(elem_vecs))

    # --- Element kernels ------------------------------------------------------------

    def physical_gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Basis gradients and quadrature weights at the element nodes.

        ``PG[e, q, i, c]`` is ``d phi_i / d x_c`` at node ``q`` of element
        ``e`` and ``wdet[e, q] = w_q det J``.  Computed once per space;
        both arrays are read-only.
        """
        if self._gradients is None:
            m = self.mesh
            nl = m.nelem_local
            G = gradient_matrices(self.dim, self.nq)
            jinv = m.jinv[:nl]
            PG = np.zeros((nl, self.npts, self.npts, self.dim))
            for a in range(self.dim):
                PG += jinv[:, :, a, None, :] * G[a][None, :, :, None]
            wdet = m.detj[:nl] * m.weights[None, :]
            for arr in (PG, wdet):
                arr.setflags(write=False)
            self._gradients = (PG, wdet)
        return self._gradients

    def elem_laplacian(self, coeff: Optional[np.ndarray] = None) -> np.ndarray:
        """Element stiffness: int coeff grad(phi_i) . grad(phi_j)."""
        m = self.mesh
        nl = m.nelem_local
        G = gradient_matrices(self.dim, self.nq)
        wdet = m.detj[:nl] * m.weights[None, :]
        if coeff is not None:
            wdet = wdet * coeff
        jinv = m.jinv[:nl]
        K = np.zeros((nl, self.npts, self.npts))
        for a in range(self.dim):
            for b in range(self.dim):
                gab = np.einsum("epc,epc->ep", jinv[:, :, a, :], jinv[:, :, b, :])
                K += np.einsum("qi,eq,qj->eij", G[a], wdet * gab, G[b])
        return K

    def elem_mass(self, coeff: Optional[np.ndarray] = None) -> np.ndarray:
        """Element (LGL-collocated, diagonal) mass matrices."""
        m = self.mesh
        nl = m.nelem_local
        wdet = m.detj[:nl] * m.weights[None, :]
        if coeff is not None:
            wdet = wdet * coeff
        M = np.zeros((nl, self.npts, self.npts))
        idx = np.arange(self.npts)
        M[:, idx, idx] = wdet
        return M

    def elem_load(self, f_nodal: np.ndarray) -> np.ndarray:
        """Element load vectors for a nodal forcing field."""
        m = self.mesh
        nl = m.nelem_local
        return m.detj[:nl] * m.weights[None, :] * f_nodal

    # --- Node geometry & BCs ----------------------------------------------------------

    def node_coords(self, geometry) -> np.ndarray:
        """Physical coordinates of each local node (via its canonical key)."""
        from repro.p4est.bits import dimension

        ln = self.ln
        NL = ln.degree * dimension(self.dim).root_len
        keys = ln.keys
        out = np.zeros((len(keys), self.mesh.coords.shape[2]))
        for tree in np.unique(keys[:, 0]):
            sel = np.flatnonzero(keys[:, 0] == tree)
            u = keys[sel, 1 : 1 + self.dim].astype(np.float64) / NL
            out[sel] = geometry.map_points(int(tree), u)[:, : out.shape[1]]
        return out

    def boundary_node_mask(self, conn) -> np.ndarray:
        """Nodes on the physical (unconnected) domain boundary."""
        from repro.p4est.bits import dimension

        ln = self.ln
        NL = ln.degree * dimension(self.dim).root_len
        keys = ln.keys
        mask = np.zeros(len(keys), dtype=bool)
        for a in range(self.dim):
            for side, val in ((0, 0), (1, NL)):
                on = keys[:, 1 + a] == val
                if not on.any():
                    continue
                face = 2 * a + side
                for tree in np.unique(keys[on, 0]):
                    if conn.is_boundary_face(int(tree), face):
                        mask |= on & (keys[:, 0] == tree)
        return mask

    # --- Distributed linear algebra ----------------------------------------------------

    def make_operator(self, A_local: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
        """Distributed matvec: local product + reverse-add over shared nodes.

        Input vectors must be *consistent* (same value on every copy of a
        shared node); the output is consistent as well.
        """

        def mv(x: np.ndarray) -> np.ndarray:
            return self.ln.scatter_reverse_add(self.comm, A_local @ x)

        return mv

    def make_constrained_operator(
        self, A_local: sp.csr_matrix, fixed_mask: np.ndarray
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Distributed matvec acting as the identity on constrained nodes.

        Use together with a matrix whose constrained rows/columns were
        zeroed (no identity diagonal): shared Dirichlet rows would
        otherwise accumulate one identity per touching rank in the
        reverse-add.
        """

        def mv(x: np.ndarray) -> np.ndarray:
            y = self.ln.scatter_reverse_add(self.comm, A_local @ x)
            y[fixed_mask] = x[fixed_mask]
            return y

        return mv

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Global inner product over owned nodes (one allreduce)."""
        owned = self.ln.is_owned()
        local = float(np.dot(a[owned], b[owned]))
        return float(self.comm.allreduce(local, SUM))

    def norm(self, a: np.ndarray) -> float:
        """Global 2-norm, ``sqrt(dot(a, a))`` (one allreduce)."""
        return float(np.sqrt(max(self.dot(a, a), 0.0)))


def eliminate_dirichlet(A: sp.spmatrix, mask: np.ndarray) -> sp.csr_matrix:
    """``D_free A D_free + D_fixed``: rows and columns of the masked dofs
    zeroed (and dropped from the pattern), identity on their diagonal."""
    fixed = np.asarray(mask, dtype=bool).astype(np.float64)
    free = sp.diags(1.0 - fixed)
    out = sp.csr_matrix(free @ A @ free + sp.diags(fixed))
    out.eliminate_zeros()
    return out


def apply_dirichlet(
    A: sp.csr_matrix,
    b: np.ndarray,
    mask: np.ndarray,
    values: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric elimination of Dirichlet rows/columns.

    Returns modified copies; constrained entries get identity rows and
    ``values`` on the right-hand side.
    """
    fixed = np.flatnonzero(mask)
    # Move known values to the RHS, then zero rows/cols.
    b = b - A.tocsr()[:, fixed] @ values[fixed]
    b[fixed] = values[fixed]
    return eliminate_dirichlet(A, mask), b
