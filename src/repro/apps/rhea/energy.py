"""SUPG-stabilized energy transport for the Boussinesq system.

The energy equation (2c) is advection-dominated; the paper stabilizes it
with the streamline-upwind Petrov-Galerkin scheme and integrates it
explicitly, decoupling the temperature update from the nonlinear Stokes
solve.  This module provides one explicit SUPG step on the Q1 cG space:

    T <- T + dt M_L^{-1} [ -(C(v) + S(v)) T - kappa K T + (phi + tau
         v.grad phi) H ]

with C the advection operator, S the SUPG term tau (v.grad phi_i)
(v.grad phi_j), K the diffusion stiffness, M_L the lumped mass, and
tau = h / (2 |v|) elementwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mangll.cgops import CGSpace


def supg_energy_rhs(
    cgs: CGSpace,
    T: np.ndarray,
    u: np.ndarray,
    kappa: float,
    source: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assembled SUPG right-hand side divided by the lumped mass.

    ``T`` (nloc,) nodal temperature; ``u`` (nloc, dim) nodal velocity;
    ``source`` optional nodal heat production.  Returns dT/dt (nloc,).
    Collective (one reverse-add scatter pair).
    """
    nl = cgs.mesh.nelem_local
    PG, wdet = cgs.physical_gradients()
    h = cgs.mesh.element_volumes()[:nl] ** (1.0 / cgs.dim)

    Te = cgs.element_values(T)
    ue = cgs.element_values(u)
    gradT = np.einsum("eqjc,ej->eqc", PG, Te)
    adv = np.einsum("eqc,eqc->eq", ue, gradT)  # v . grad T at nodes
    speed = np.linalg.norm(ue, axis=2)
    tau = h[:, None] / np.maximum(2.0 * speed, 1e-12)
    tau = np.where(speed > 1e-10, tau, 0.0)
    src = cgs.element_values(source) if source is not None else 0.0
    resid = adv - src
    # Galerkin advection + source (collocated) ...
    re = -wdet * resid
    # ... SUPG streamline term ...
    vgphi = np.einsum("eqc,eqjc->eqj", ue, PG)  # v.grad phi_j at q
    re -= np.einsum("eqj,eq->ej", vgphi, wdet * tau * resid)
    # ... and diffusion (integrated by parts).
    re -= kappa * np.einsum("eqjc,eqc->ej", PG, wdet[..., None] * gradT)
    rhs = cgs.assemble_vector(re)
    mass = cgs.assemble_vector(wdet)

    rhs = cgs.ln.scatter_reverse_add(cgs.comm, rhs)
    mass = cgs.ln.scatter_reverse_add(cgs.comm, mass)
    return rhs / np.maximum(mass, 1e-300)


def stable_energy_dt(cgs: CGSpace, u: np.ndarray, kappa: float, cfl: float = 0.4) -> float:
    """Advective/diffusive explicit step bound."""
    from repro.parallel.ops import MIN

    d = cgs.dim
    nl = cgs.mesh.nelem_local
    h = cgs.mesh.element_volumes()[:nl] ** (1.0 / d)
    en = cgs.ln.element_nodes
    speed = np.linalg.norm(u, axis=1)
    smax = speed[en[:nl]].max(axis=1) if nl else np.array([0.0])
    dt_adv = h / np.maximum(smax, 1e-12)
    dt_diff = h**2 / max(4.0 * kappa, 1e-300)
    local = float(min(dt_adv.min(), dt_diff.min())) if nl else np.inf
    return cfl * float(cgs.comm.allreduce(local, MIN))
