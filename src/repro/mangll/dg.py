"""The dG residual driver: volume terms, face fluxes, and time-step bound.

``DGSolver`` combines a :class:`~repro.mangll.dgops.DGSpace` with a flux
model (advection, elastic/acoustic waves, ...) and evaluates the
semi-discrete right-hand side ``dq/dt`` of the nodal dG method with LGL
collocation (diagonal mass matrix, §III-B).  All parallelism is one ghost
field exchange per evaluation.

Flux models implement:

* ``nfields`` — number of solution components;
* ``volume_flux(q, x) -> F`` with shape ``(..., nfields, dim)``;
* ``numerical_flux(qm, qp, n, x) -> F*.n`` from the minus side;
* ``boundary_state(qm, n, x, t) -> exterior trace`` for domain faces;
* ``max_wave_speed(q, x) -> per-element bound`` for the CFL estimate.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mangll.dgops import BOUNDARY, COARSE, CONFORMING, FINE, DGSpace
from repro.mangll.mesh import face_node_indices
from repro.mangll.quadrature import differentiation_matrix, gauss_lobatto
from repro.parallel.collectives import collective
from repro.parallel.comm import Comm
from repro.parallel.ops import MIN, SUM
from repro.trace.tracer import PHASE_APPLY, traced


class DGSolver:
    """Semi-discrete dG operator ``dq/dt = L(q, t)`` on a forest mesh.

    The reference implementation: applications bind
    :class:`repro.mangll.op.DGOperator`, whose compiled kernels are
    tested against this class.
    """

    def __init__(self, space: DGSpace, flux_model, comm: Comm) -> None:
        self.space = space
        self.model = flux_model
        self.comm = comm
        m = space.mesh
        self.dim = space.dim
        self.nq = space.nq
        self._D = differentiation_matrix(self.nq)
        self._lift = space.lift_scale()  # (nelem_local, npts)
        # Face normals and surface Jacobians over every element, filled by
        # the first ``_faces`` call: a compiled binding never makes one.
        self._normals: Dict[int, np.ndarray] = {}
        self._sjac: Dict[int, np.ndarray] = {}
        self._wf = m.face_weights()

    # --- Volume term -----------------------------------------------------------

    def _volume(self, q_local: np.ndarray, t: float) -> np.ndarray:
        """sum_a D_a^T [ w detJ (dxi_a/dx . F) ] per local element."""
        m = self.space.mesh
        nl = m.nelem_local
        x = m.coords[:nl]
        F = self.model.volume_flux(q_local, x)  # (nl, npts, nf, dim)
        detw = (m.detj[:nl] * m.weights[None, :])[..., None]
        r = np.zeros_like(q_local)
        nq, dim = self.nq, self.dim
        nf = self.model.nfields
        jinv = m.jinv[:nl]  # (nl, npts, dim, dim): dxi_a/dx_c
        for a in range(dim):
            # Contract physical flux with the metric row a.
            Fa = np.einsum("epc,epfc->epf", jinv[:, :, a, :], F) * detw
            r += self._apply_dt(Fa, a)
        return r

    def _apply_dt(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Apply D^T along reference axis ``axis`` of nodal data
        (nelem, npts, nfields)."""
        nq, dim = self.nq, self.dim
        ne, npts, nf = v.shape
        D = self._D
        if dim == 2:
            g = v.reshape(ne, nq, nq, nf)  # [e, ky, kx, f]
            if axis == 0:
                out = np.einsum("qi,eyqf->eyif", D, g)
            else:
                out = np.einsum("qj,eqxf->ejxf", D, g)
        else:
            g = v.reshape(ne, nq, nq, nq, nf)  # [e, kz, ky, kx, f]
            if axis == 0:
                out = np.einsum("qi,ezyqf->ezyif", D, g)
            elif axis == 1:
                out = np.einsum("qj,ezqxf->ezjxf", D, g)
            else:
                out = np.einsum("qk,eqyxf->ekyxf", D, g)
        return out.reshape(ne, npts, nf)

    # --- Face terms --------------------------------------------------------------

    def _faces(self, q_all: np.ndarray, t: float, r: np.ndarray) -> None:
        sp = self.space
        m = sp.mesh
        if not self._normals:
            for f in range(2 * self.dim):
                self._normals[f], self._sjac[f] = m.face_normals(f)
        for batch in sp.batches:
            f = batch.fminus
            fidx = face_node_indices(self.dim, self.nq, f)
            if batch.kind in (CONFORMING, FINE, BOUNDARY):
                qm = q_all[batch.eminus][:, fidx]
                n = self._normals[f][batch.eminus]
                sj = self._sjac[f][batch.eminus]
                xf = m.coords[batch.eminus][:, fidx]
                if batch.kind == BOUNDARY:
                    qp = self.model.boundary_state(qm, n, xf, t)
                else:
                    pidx = face_node_indices(self.dim, self.nq, batch.fplus)
                    qsrc = q_all[batch.eplus][:, pidx]
                    qp = np.einsum("qs,esf->eqf", batch.transfer, qsrc)
                flux = self.model.numerical_flux(qm, qp, n, xf)
                contrib = flux * (sj * self._wf[None, :])[..., None]
                np.add.at(r, (batch.eminus[:, None], fidx[None, :]), -contrib)
            else:  # COARSE: evaluate at the fine partner's face nodes
                fp = batch.fplus
                pidx = face_node_indices(self.dim, self.nq, fp)
                qsrc = q_all[batch.eminus][:, fidx]  # my trace
                qm = np.einsum("qs,esf->eqf", batch.transfer, qsrc)
                qp = q_all[batch.eplus][:, pidx]
                n = -self._normals[fp][batch.eplus]
                sj = self._sjac[fp][batch.eplus]
                xf = m.coords[batch.eplus][:, pidx]
                flux = self.model.numerical_flux(qm, qp, n, xf)
                contrib = flux * (sj * self._wf[None, :])[..., None]
                lifted = np.einsum("qi,eqf->eif", batch.transfer, contrib)
                np.add.at(r, (batch.eminus[:, None], fidx[None, :]), -lifted)

    # --- Public API ------------------------------------------------------------------

    @collective("method", "rhs")
    @traced(PHASE_APPLY)
    def rhs(self, q_local: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Evaluate dq/dt (collective: one ghost exchange)."""
        sp = self.space
        if q_local.ndim == 2:
            q_local = q_local[..., None]
            squeeze = True
        else:
            squeeze = False
        q_all = sp.exchange_ghost_fields(self.comm, q_local)
        r = self._volume(q_local, t)
        self._faces(q_all, t, r)
        r *= self._lift[..., None]
        return r[..., 0] if squeeze else r

    @collective("method", "stable_dt")
    def stable_dt(self, q_local: np.ndarray, cfl: float = 0.3) -> float:
        """Global CFL time-step bound (collective allreduce MIN)."""
        m = self.space.mesh
        nl = m.nelem_local
        if nl:
            speed = np.asarray(
                self.model.max_wave_speed(q_local, m.coords[:nl])
            )
            # Element length scale: min physical node spacing along axes,
            # conservatively vol^(1/dim) * min LGL gap.
            vols = m.element_volumes()[:nl]
            hchar = vols ** (1.0 / self.dim)
            xi, _ = gauss_lobatto(self.nq)
            gap = 0.5 * (xi[1] - xi[0])  # fraction of the element
            dts = hchar * gap / np.maximum(speed, 1e-30)
            local = float(dts.min())
        else:
            local = np.inf
        return float(self.comm.allreduce(local, MIN)) * cfl

    @collective("method", "integrate_quantity")
    def integrate_quantity(self, q_local: np.ndarray) -> np.ndarray:
        """Global integral of each field (collective allreduce)."""
        m = self.space.mesh
        nl = m.nelem_local
        wdet = m.detj[:nl] * m.weights[None, :]
        if q_local.ndim == 2:
            q_local = q_local[..., None]
        local = np.einsum("ep,epf->f", wdet, q_local)
        return np.asarray(self.comm.allreduce(local, SUM))
