"""Variable-viscosity Stokes: Q1/Q1 stabilized FEM and the paper's solver.

Discretization (§IV-A): equal-order trilinear velocity/pressure with
pressure-projection stabilization (Dohrmann & Bochev), viscous term in the
full symmetric-gradient form ``int 2 eta eps(u):eps(v)``.  The saddle
system

    [ A   B^T ] [u]   [f]
    [ B  -C   ] [p] = [0]

is solved with MINRES, preconditioned in the (1,1) block by one V-cycle
of smoothed-aggregation AMG, as the paper's Rhea does, and in the (2,2)
block by BFBT, the Schur-complement approximation the authors moved to
after it (Rudi et al., SC15): the paper's inverse-viscosity pressure mass
does not hold up against the viscosity contrast of the plate weak zones.
The Dirichlet-eliminated saddle structure is built once per forest
revision (the driver keeps its ``StokesProblem`` across an adapt that
left the forest unchanged), so a Picard step writes values only.
V-cycle count and time are recorded separately from the rest of the
Krylov work, which is the split reported in Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mangll.cgops import CGSpace
from repro.solvers.amg import AMGHierarchy, kept_indptr, row_ids, smoothed_aggregation
from repro.solvers.krylov import minres
from repro.trace.tracer import PHASE_SOLVE, PHASE_VCYCLE, phase, traced


@dataclass
class StokesResult:
    """Solution and instrumentation of one Stokes solve."""

    u: np.ndarray  # (n_nodes, dim)
    p: np.ndarray  # (n_nodes,)
    iterations: int
    converged: bool
    residuals: list
    # V-cycles applied: per preconditioner application one on the velocity
    # and two on the BFBT pressure operator L.
    vcycles: int
    # Rows of each velocity AMG level, the dense coarsest one last.
    amg_sizes: List[int] = field(default_factory=list)
    # "assemble" includes "eliminate"; "amg_setup" covers L and both
    # hierarchies; "vcycle" times all three cycles of every application;
    # "solve_total" = "vcycle" + "krylov_other".
    timings: Dict[str, float] = field(default_factory=dict)


class _Saddle(NamedTuple):
    """Which entries of :meth:`StokesProblem.assemble`'s ``A`` and ``B``
    the Dirichlet elimination keeps, for one no-slip mask.

    The plan's pattern holds every diagonal, so the eliminated ``A`` is a
    subset of ``A``'s entries in ``A``'s order: the free-free ones and, as
    1.0, the diagonal of each fixed row.  The eliminated ``B`` is ``B``'s
    entries in free columns.  Which free entries cancel to 0.0 changes
    with the viscosity, so the subsets keep them all.
    """

    fixed: np.ndarray
    a_keep: np.ndarray  # bool over A's entries
    a_unit: np.ndarray  # kept positions of the fixed diagonals
    a_indptr: np.ndarray
    b_keep: np.ndarray  # bool over B's entries
    b_indptr: np.ndarray

    @classmethod
    def build(cls, A: sp.csr_matrix, B: sp.csr_matrix, fixed: np.ndarray) -> "_Saddle":
        """The subsets of ``A`` and ``B`` for the mask ``fixed``."""
        free = ~fixed
        ra, rb = row_ids(A), row_ids(B)
        unit = fixed[ra] & (ra == A.indices)
        a_keep = unit | (free[ra] & free[A.indices])
        b_keep = free[B.indices]
        return cls(
            fixed.copy(),
            a_keep,
            np.flatnonzero(unit[a_keep]),
            kept_indptr(ra, a_keep, A.shape[0]),
            b_keep,
            kept_indptr(rb, b_keep, B.shape[0]),
        )

    def eliminate(
        self, A: sp.csr_matrix, B: sp.csr_matrix
    ) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """The eliminated ``A`` and ``B``, exact zeros dropped."""
        Ae = sp.csr_matrix(
            (A.data[self.a_keep], A.indices[self.a_keep], self.a_indptr.copy()), shape=A.shape
        )
        Ae.data[self.a_unit] = 1.0
        Be = sp.csr_matrix(
            (B.data[self.b_keep], B.indices[self.b_keep], self.b_indptr.copy()), shape=B.shape
        )
        for M in (Ae, Be):
            M.eliminate_zeros()  # in place, hence the indptr copies
        return Ae, Be


# Chebyshev smoothing of BFBT's L^-1 V-cycle, degree PRESSURE_SWEEPS + 1:
# at degree six the MINRES count is that of an exact L^-1.
PRESSURE_SWEEPS = 5


def _scale_columns(B: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    return sp.csr_matrix((B.data * scale[B.indices], B.indices, B.indptr), shape=B.shape)


class BFBTPreconditioner:
    """MINRES's block-diagonal preconditioner for ``K = [[A, B^T], [B, -C]]``.

    The (1,1) block is one V-cycle of smoothed-aggregation AMG on ``A``.
    The (2,2) block is BFBT (Rudi et al., SC15; Rudi, Stadler & Ghattas,
    SISC 2017),

        S^-1 ~ L^-1 (B D^-1 A D^-1 B^T + C) L^-1,  L = B D^-1 B^T + C,

    with ``D = diag(A)`` and each ``L^-1`` one scalar SA V-cycle on ``L``
    (Chebyshev-smoothed).  Both V-cycles are symmetric, so both blocks are
    symmetric positive definite, the pressure one on mean-zero pressures.
    Applied to a residual, it returns a mean-zero pressure part.
    """

    def __init__(
        self, A: sp.csr_matrix, B: sp.csr_matrix, C: sp.csr_matrix, block_size: int
    ) -> None:
        self.A, self.C = A, C
        self.nv = A.shape[0]
        self.velocity = smoothed_aggregation(A, block_size=block_size)
        dinv = 1.0 / A.diagonal()
        self.BD = _scale_columns(B, dinv)
        # L = S S^T + C with S = B D^-1/2: each entry's terms are the same
        # products in the same order as its mirror's, so L is symmetric.
        S = _scale_columns(B, np.sqrt(dinv))
        # Under no-slip the constant pressure is (near-)null for L, and
        # __call__ removes the pressure means.
        self.pressure = smoothed_aggregation(
            S @ S.T + C, smoother="chebyshev", presmooth=PRESSURE_SWEEPS, postsmooth=PRESSURE_SWEEPS
        )
        self.vcycle_s = 0.0  # wall time inside the three V-cycles

    @property
    def cycles(self) -> int:
        """V-cycles applied so far, velocity and pressure."""
        return self.velocity.cycles_applied + self.pressure.cycles_applied

    def _vcycle(self, ml: AMGHierarchy, b: np.ndarray) -> np.ndarray:
        t = time.perf_counter()
        with phase(PHASE_VCYCLE):
            x = ml.vcycle(b)
        self.vcycle_s += time.perf_counter() - t
        return x

    def _pressure_vcycle(self, b: np.ndarray) -> np.ndarray:
        """Mean-zero ``L^-1 b``, up to one V-cycle, for mean-zero ``b``."""
        x = self._vcycle(self.pressure, b)
        return x - x.mean()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        nv = self.nv
        z = np.empty_like(r)
        z[:nv] = self._vcycle(self.velocity, r[:nv])
        y = self._pressure_vcycle(r[nv:])
        y = self.BD @ (self.A @ (self.BD.T @ y)) + self.C @ y
        z[nv:] = self._pressure_vcycle(y - y.mean())
        return z


class StokesProblem:
    """Assembles and solves the stabilized variable-viscosity system."""

    def __init__(self, cgs: CGSpace) -> None:
        self.cgs = cgs
        self.dim = cgs.dim
        self.npts = cgs.npts
        self._saddle: Optional[_Saddle] = None

    # --- element physics ------------------------------------------------------------

    def element_matrices(
        self, eta: np.ndarray, force: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-element (K_u, B, C, f) for nodal viscosity and body force."""
        d, npts = self.dim, self.npts
        PG, wdet = self.cgs.physical_gradients()
        nl = PG.shape[0]
        X = PG.reshape(nl, npts, npts * d)  # X[e, q, (i, c)]

        # G[e, (i, b), (j, a)] = sum_q w_q eta_q dphi_i/dx_b dphi_j/dx_a.
        G = np.matmul((X * (wdet * eta)[:, :, None]).transpose(0, 2, 1), X)
        G = G.reshape(nl, npts, d, npts, d)
        lap = np.trace(G, axis1=2, axis2=4)  # grad(phi_i) . grad(phi_j)
        # eps:eps form: delta_cd grad.grad + the transposed coupling.
        K = G.transpose(0, 1, 4, 3, 2).copy()
        for c in range(d):
            K[:, :, c, :, c] += lap
        K = K.reshape(nl, npts * d, npts * d)

        # Row i uses phi_i collocated at node i (nodal basis), so
        # B[i, (j,c)] = -wdet_i dphi_j/dx_c(node_i).
        B = -(wdet[:, :, None] * X)

        Dw = wdet / np.maximum(eta, 1e-300)
        ssum = Dw.sum(axis=1)
        C = -np.einsum("ei,ej->eij", Dw, Dw) / ssum[:, None, None]
        idx = np.arange(npts)
        C[:, idx, idx] += Dw

        fvec = (wdet[..., None] * force).reshape(nl, npts * d)
        return K, B, C, fvec

    # --- assembly --------------------------------------------------------------------

    def assemble(
        self, eta: np.ndarray, force: np.ndarray
    ) -> Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix, np.ndarray]:
        """Assembled (A, B, C, f) over local node ids with hanging
        constraints applied element-wise."""
        cgs = self.cgs
        d = self.dim
        K, Be, Ce, fe = self.element_matrices(eta, force)
        A = cgs.assemble_matrix(K, d, d)
        B = cgs.assemble_matrix(Be, 1, d)
        C = cgs.assemble_matrix(Ce)
        fvec = cgs.assemble_vector(fe.reshape(-1, self.npts, d)).ravel()
        return A, B, C, fvec

    def eliminate(
        self, A: sp.csr_matrix, B: sp.csr_matrix, C: sp.csr_matrix, fixed: np.ndarray
    ) -> Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """Eliminated ``A`` and ``B`` and ``K = [[A, B^T], [B, -C]]`` for
        :meth:`assemble`'s blocks and the no-slip dof mask ``fixed``.

        Equal, bit for bit, to :func:`eliminate_dirichlet` on ``A``, ``B``
        times the free-dof diagonal (both drop exact zeros) and ``sp.bmat``.
        Which entries survive is worked out on the first call and again
        only for a new mask, so a Picard step moves values.
        """
        s = self._saddle
        if s is None or not np.array_equal(s.fixed, fixed):
            s = self._saddle = _Saddle.build(A, B, fixed)
        A, B = s.eliminate(A, B)
        # scipy's CSR stacking lays K out as sp.bmat does, without bmat's
        # round trip through COO.
        K = sp.vstack(
            [sp.hstack([A, B.T.tocsr()], format="csr"), sp.hstack([B, -C], format="csr")],
            format="csr",
        )
        return A, B, K

    # --- solve ------------------------------------------------------------------------

    @traced(PHASE_SOLVE)
    def solve(
        self,
        eta: np.ndarray,
        force: np.ndarray,
        fixed_velocity: np.ndarray,
        tol: float = 1e-8,
        maxiter: int = 500,
    ) -> StokesResult:
        """Assemble and solve with MINRES preconditioned by
        :class:`BFBTPreconditioner`.

        ``fixed_velocity`` is a boolean (n_nodes, dim) mask of Dirichlet
        (zero) velocity components.  Currently serial (one rank);
        parallel scaling enters through the performance model.
        """
        cgs = self.cgs
        if cgs.comm.size != 1:
            raise NotImplementedError(
                "the Stokes solve runs serially; scaling is modeled (DESIGN.md)"
            )
        d = self.dim
        nloc = cgs.ln.num_local_nodes
        t0 = time.perf_counter()
        A, B, C, f = self.assemble(eta, force)
        fixed = np.asarray(fixed_velocity, dtype=bool).reshape(nloc * d)

        # Symmetric elimination of fixed (zero) velocity components.
        t_elim = time.perf_counter()
        A, B, K = self.eliminate(A, B, C, fixed)
        f[fixed] = 0.0
        t_eliminate = time.perf_counter() - t_elim
        t_assemble = time.perf_counter() - t0

        t0 = time.perf_counter()
        M = BFBTPreconditioner(A, B, C, block_size=d)
        t_amg_setup = time.perf_counter() - t0

        nv = nloc * d

        def Kmv(x):
            y = K @ x
            y[nv:] -= y[nv:].mean()
            return y

        rhs = np.concatenate([f, np.zeros(nloc)])
        t0 = time.perf_counter()
        res = minres(Kmv, rhs, M=M, tol=tol, maxiter=maxiter)
        t_solve = time.perf_counter() - t0

        u = res.x[:nv].reshape(nloc, d)
        p = res.x[nv:]
        p = p - p.mean()
        return StokesResult(
            u=u,
            p=p,
            iterations=res.iterations,
            converged=res.converged,
            residuals=res.residuals,
            vcycles=M.cycles,
            amg_sizes=M.velocity.level_sizes,
            timings={
                "assemble": t_assemble,
                "eliminate": t_eliminate,
                "amg_setup": t_amg_setup,
                "vcycle": M.vcycle_s,
                "solve_total": t_solve,
                "krylov_other": max(t_solve - M.vcycle_s, 0.0),
            },
        )

    # --- post-processing ---------------------------------------------------------------

    def strain_rate_invariant(self, u: np.ndarray) -> np.ndarray:
        """Nodal II = eps(u):eps(u) per element (for the rheology)."""
        PG, _ = self.cgs.physical_gradients()
        nl, npts, d = PG.shape[0], self.npts, self.dim
        ue = self.cgs.element_values(u)  # geometric nodal velocities (nl, npts, d)
        PGt = PG.transpose(0, 1, 3, 2).reshape(nl, npts * d, npts)
        grad = np.matmul(PGt, ue).reshape(nl, npts, d, d)  # du_d/dx_c
        epsm = 0.5 * (grad + grad.transpose(0, 1, 3, 2))
        return (epsm * epsm).reshape(nl, npts, d * d).sum(axis=2)
