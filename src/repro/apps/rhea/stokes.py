"""Variable-viscosity Stokes: Q1/Q1 stabilized FEM and the paper's solver.

Discretization (§IV-A): equal-order trilinear velocity/pressure with
pressure-projection stabilization (Dohrmann & Bochev), viscous term in the
full symmetric-gradient form ``int 2 eta eps(u):eps(v)``.  The saddle
system

    [ A   B^T ] [u]   [f]
    [ B  -C   ] [p] = [0]

is solved with MINRES, preconditioned in the (1,1) block by one V-cycle
of smoothed-aggregation AMG and in the (2,2) block by the inverse-
viscosity-weighted lumped pressure mass matrix — the exact structure the
paper attributes to Rhea.  V-cycle count and time are recorded separately
from the rest of the Krylov work, which is the split reported in Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mangll.cgops import CGSpace, eliminate_dirichlet
from repro.solvers.amg import smoothed_aggregation
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
    vcycles: int
    # Rows of each AMG level the solve used, the dense coarsest one last.
    amg_sizes: List[int] = field(default_factory=list)
    # "assemble" includes "eliminate"; "solve_total" = "vcycle" + "krylov_other".
    timings: Dict[str, float] = field(default_factory=dict)


class StokesProblem:
    """Assembles and solves the stabilized variable-viscosity system."""

    def __init__(self, cgs: CGSpace) -> None:
        self.cgs = cgs
        self.dim = cgs.dim
        self.npts = cgs.npts

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

    # --- solve ------------------------------------------------------------------------

    @traced(PHASE_SOLVE)
    def solve(
        self,
        eta: np.ndarray,
        force: np.ndarray,
        fixed_velocity: np.ndarray,
        tol: float = 1e-8,
        maxiter: int = 500,
        eta_nodal_for_schur: Optional[np.ndarray] = None,
    ) -> StokesResult:
        """Assemble and solve with the paper's preconditioned MINRES.

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
        A = eliminate_dirichlet(A, fixed)
        B = sp.csr_matrix(B @ sp.diags((~fixed).astype(np.float64)))
        B.eliminate_zeros()
        f[fixed] = 0.0
        t_eliminate = time.perf_counter() - t_elim
        t_assemble = time.perf_counter() - t0

        K = sp.bmat([[A, B.T], [B, -C]], format="csr")
        rhs = np.concatenate([f, np.zeros(nloc)])

        t0 = time.perf_counter()
        ml = smoothed_aggregation(A, block_size=d)
        t_amg_setup = time.perf_counter() - t0

        # Pressure block: lumped mass weighted by 1/eta -> its inverse is
        # the paper's (2,2) preconditioner.
        m = self.cgs.mesh
        wdet = m.detj[: m.nelem_local] * m.weights[None, :]
        mass_over_eta = cgs.assemble_vector(wdet / np.maximum(eta, 1e-300))
        mass_over_eta = np.maximum(mass_over_eta, 1e-300)

        nv = nloc * d
        vcycle_time = [0.0]

        def project_pressure(x):
            x = x.copy()
            x[nv:] -= x[nv:].mean()
            return x

        def Kmv(x):
            return project_pressure(K @ x)

        def M(r):
            z = np.empty_like(r)
            t1 = time.perf_counter()
            with phase(PHASE_VCYCLE):
                z[:nv] = ml.vcycle(r[:nv])
            vcycle_time[0] += time.perf_counter() - t1
            z[nv:] = r[nv:] / mass_over_eta
            return project_pressure(z)

        rhs = project_pressure(rhs)
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
            vcycles=ml.cycles_applied,
            amg_sizes=ml.level_sizes,
            timings={
                "assemble": t_assemble,
                "eliminate": t_eliminate,
                "amg_setup": t_amg_setup,
                "vcycle": vcycle_time[0],
                "solve_total": t_solve,
                "krylov_other": max(t_solve - vcycle_time[0], 0.0),
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
