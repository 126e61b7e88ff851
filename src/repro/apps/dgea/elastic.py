"""Momentum-strain elastic wave flux model with upwind interface fluxes.

The first-order system of the paper's equations (3a)-(3b),

    rho dv/dt = div sigma,   dE/dt = sym(grad v),
    sigma = 2 mu E + lambda tr(E) I,

is carried in the fields ``q = (m, E)`` with **momentum** ``m = rho v``
and the strain in Voigt order (3D: xx, yy, zz, yz, xz, xy; 2D: xx, yy,
xy).  In these variables both equations are exact divergences of
nodally evaluated quantities — ``dm/dt = div sigma(E)`` and
``dE/dt = sym grad(m/rho)`` — so heterogeneous media introduce no
chain-rule commutator (a velocity-flux form ``div(sigma/rho)`` would
solve a *different* PDE wherever ``rho`` varies and loses the energy
estimate).  Velocity remains available as ``m / rho(x)``.

"The first-order velocity-strain formulation allows us to simulate waves
propagating in acoustic, elastic and coupled acoustic-elastic media
within the same framework" — fluid regions are the mu -> 0 limit,
handled by an impedance guard in the tangential Riemann solution and an
isotropic ghost construction at boundaries.

The numerical flux is the exact (Godunov) solution of the interface
Riemann problem: continuity of traction and velocity, with P- and S-
impedances ``z_p = rho c_p``, ``z_s = rho c_s``.  The free-surface
boundary reflects the traction (traction-free star state); the mirror
boundary reflects normal velocity and tangential traction (free-slip).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

Material = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


def voigt_count(dim: int) -> int:
    return dim * (dim + 1) // 2


def voigt_pairs(dim: int):
    if dim == 2:
        return ((0, 0), (1, 1), (0, 1))
    return ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


class ElasticModel:
    """dG flux model for linear elastodynamics in velocity-strain form.

    ``material(x) -> (rho, lam, mu)`` evaluates the medium at node
    coordinate arrays of shape ``(..., pdim)``.

    ``lowering_kind`` opts the model into the kernel compiler's
    specialized elastic lowering (coefficient-hoisted, tensor-free; see
    ``repro.mangll.compiler.lower``).  The compiler reads it from the
    model's own class only, so a subclass compiles only if it declares
    one itself.
    """

    lowering_kind = "elastic"

    def __init__(self, dim: int, material: Material, bc: str = "free") -> None:
        if bc not in ("free", "mirror"):
            raise ValueError("bc must be 'free' (traction-free) or 'mirror' (free-slip)")
        self.dim = dim
        self.nv = dim
        self.ne = voigt_count(dim)
        self.nfields = self.nv + self.ne
        self.material = material
        self.bc = bc

    # --- constitutive helpers ---------------------------------------------------

    def stress(self, E_voigt: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Full stress tensor (..., dim, dim) from Voigt strain."""
        dim = self.dim
        shape = E_voigt.shape[:-1]
        sig = np.zeros(shape + (dim, dim))
        tr = sum(E_voigt[..., a] for a in range(dim))
        for k, (i, j) in enumerate(voigt_pairs(dim)):
            sig[..., i, j] = 2 * mu * E_voigt[..., k]
            sig[..., j, i] = sig[..., i, j]
        for a in range(dim):
            sig[..., a, a] += lam * tr
        return sig

    def strain_from_stress(
        self, sig: np.ndarray, lam: np.ndarray, mu: np.ndarray
    ) -> np.ndarray:
        """Voigt strain from a stress tensor (isotropic inverse law)."""
        dim = self.dim
        tr_sig = np.trace(sig, axis1=-2, axis2=-1)
        denom = dim * lam + 2 * mu
        trE = tr_sig / np.maximum(denom, 1e-300)
        out = np.zeros(sig.shape[:-2] + (self.ne,))
        solid = 2 * mu > 1e-12
        inv2mu = np.where(solid, 1.0 / np.where(solid, 2 * mu, 1.0), 0.0)
        for k, (i, j) in enumerate(voigt_pairs(dim)):
            dev = sig[..., i, j] - (lam * trE if i == j else 0.0)
            # In fluid (mu -> 0) regions the deviatoric strain is
            # indeterminate; return zero shear strain there.
            out[..., k] = dev * inv2mu if i != j else np.where(
                solid, dev * inv2mu, trE / dim
            )
        return out

    # --- dG model interface --------------------------------------------------------

    def velocity(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Nodal velocity m / rho(x)."""
        rho, _, _ = self.material(x)
        return q[..., : self.nv] / rho[..., None]

    def volume_flux(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        dim = self.dim
        rho, lam, mu = self.material(x)
        E = q[..., self.nv :]
        sig = self.stress(E, lam, mu)
        F = np.zeros(q.shape[:-1] + (self.nfields, dim))
        for i in range(dim):
            F[..., i, :] = -sig[..., i, :]
        v = q[..., : self.nv] / rho[..., None]
        for k, (i, j) in enumerate(voigt_pairs(dim)):
            F[..., self.nv + k, i] += -0.5 * v[..., j]
            F[..., self.nv + k, j] += -0.5 * v[..., i]
        return F

    def _impedances(self, x: np.ndarray):
        rho, lam, mu = self.material(x)
        cp = np.sqrt((lam + 2 * mu) / rho)
        cs = np.sqrt(np.maximum(mu, 0.0) / rho)
        return rho, lam, mu, rho * cp, rho * cs

    def numerical_flux(
        self, qm: np.ndarray, qp: np.ndarray, n: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        dim = self.dim
        nvec = n[..., :dim]
        rho, lam, mu, zp, zs = self._impedances(x)

        vm = qm[..., : self.nv] / rho[..., None]
        vp_ = qp[..., : self.nv] / rho[..., None]
        sm = self.stress(qm[..., self.nv :], lam, mu)
        sp = self.stress(qp[..., self.nv :], lam, mu)
        Tm = np.einsum("...ij,...j->...i", sm, nvec)
        Tp = np.einsum("...ij,...j->...i", sp, nvec)

        def split(vec):
            vn = np.einsum("...i,...i->...", vec, nvec)
            return vn, vec - vn[..., None] * nvec

        Tmn, Tmt = split(Tm)
        Tpn, Tpt = split(Tp)
        vmn, vmt = split(vm)
        vpn, vpt = split(vp_)

        # P (normal) Riemann star.  The invariant T - z v propagates in
        # the +n direction (out of the minus side), T + z v in -n; hence
        # T* - z- v* = T- - z- v-  and  T* + z+ v* = T+ + z+ v+.
        szp = 2.0 * zp  # same material both sides at the face point
        vns = (zp * vmn + zp * vpn + (Tpn - Tmn)) / szp
        Tns = (zp * Tpn + zp * Tmn + zp * zp * (vpn - vmn)) / szp
        # S (tangential) star with the fluid guard.
        szs = 2.0 * zs
        fluid = szs < 1e-12
        szs_safe = np.where(fluid, 1.0, szs)
        vts = (zs[..., None] * (vmt + vpt) + (Tpt - Tmt)) / szs_safe[..., None]
        Tts = (
            zs[..., None] * (Tpt + Tmt) + (zs * zs)[..., None] * (vpt - vmt)
        ) / szs_safe[..., None]
        if fluid.any():
            vts = np.where(fluid[..., None], 0.5 * (vmt + vpt), vts)
            Tts = np.where(fluid[..., None], 0.0, Tts)

        Tstar = Tns[..., None] * nvec + Tts
        vstar = vns[..., None] * nvec + vts

        out = np.zeros_like(qm)
        out[..., : self.nv] = -Tstar
        for k, (i, j) in enumerate(voigt_pairs(dim)):
            out[..., self.nv + k] = -0.5 * (
                nvec[..., i] * vstar[..., j] + nvec[..., j] * vstar[..., i]
            )
        return out

    def boundary_state(
        self, qm: np.ndarray, n: np.ndarray, x: np.ndarray, t: float
    ) -> np.ndarray:
        """Exterior ghost state for the configured boundary condition.

        ``"free"`` (free surface): same velocity, fully reflected traction,
        so the Riemann star traction vanishes.  ``"mirror"`` (free-slip /
        symmetry): normal velocity and tangential traction reflected, so
        the star has v.n = 0 and zero tangential traction.
        """
        dim = self.dim
        nvec = n[..., :dim]
        rho, lam, mu = self.material(x)
        sig = self.stress(qm[..., self.nv :], lam, mu)
        T = np.einsum("...ij,...j->...i", sig, nvec)
        Tn = np.einsum("...i,...i->...", T, nvec)
        Tt = T - Tn[..., None] * nvec
        out = qm.copy()
        if self.bc == "free":
            # sigma+ = sigma- - (n Tp^T + Tp n^T) with Tp = Tn n + 2 Tt
            # gives sigma+ . n = -T.
            Tp = Tn[..., None] * nvec + 2.0 * Tt
        else:
            # Free-slip: sigma+ . n = Tn n - Tt needs Tp = 2 Tt with
            # Tp.n = 0; additionally mirror the normal velocity.
            Tp = 2.0 * Tt
            v = qm[..., : self.nv]
            vn = np.einsum("...i,...i->...", v, nvec)
            out[..., : self.nv] = v - 2.0 * vn[..., None] * nvec
        corr = (
            nvec[..., :, None] * Tp[..., None, :]
            + Tp[..., :, None] * nvec[..., None, :]
        )
        sig_plus = sig - corr
        out[..., self.nv :] = self.strain_from_stress(sig_plus, lam, mu)
        # Fluid (mu -> 0) regions can only carry isotropic stress: the
        # rank-2 correction above is anisotropic and its isotropic
        # projection would yield p+ = 0 instead of the mirror p+ = -p,
        # an inconsistent state that pumps energy at walls.  Build the
        # ghost strain isotropically there instead.
        fluid = mu < 1e-12
        if fluid.any():
            if self.bc == "free":
                dtr = 2.0 * Tn / (dim * np.maximum(lam, 1e-300))
                for a in range(dim):
                    out[..., self.nv + a] = np.where(
                        fluid, qm[..., self.nv + a] - dtr, out[..., self.nv + a]
                    )
                for k in range(dim, self.ne):
                    out[..., self.nv + k] = np.where(
                        fluid, qm[..., self.nv + k], out[..., self.nv + k]
                    )
            else:
                for k in range(self.ne):
                    out[..., self.nv + k] = np.where(
                        fluid, qm[..., self.nv + k], out[..., self.nv + k]
                    )
        return out

    def max_wave_speed(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        rho, lam, mu = self.material(x)
        cp = np.sqrt((lam + 2 * mu) / rho)
        return cp.max(axis=-1)

    # --- diagnostics ----------------------------------------------------------------

    def energy_density(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Kinetic + strain energy density at each node: |m|^2/(2 rho) +
        sigma:E/2."""
        rho, lam, mu = self.material(x)
        m = q[..., : self.nv]
        E = q[..., self.nv :]
        sig = self.stress(E, lam, mu)
        strain_e = 0.0
        for k, (i, j) in enumerate(voigt_pairs(self.dim)):
            factor = 1.0 if i == j else 2.0
            strain_e = strain_e + 0.5 * factor * sig[..., i, j] * E[..., k]
        return 0.5 * (m**2).sum(axis=-1) / rho + strain_e


def homogeneous_material(rho: float, vp: float, vs: float) -> Material:
    """Constant medium from density and wave speeds."""
    mu = rho * vs**2
    lam = rho * vp**2 - 2 * mu

    def material(x: np.ndarray):
        shape = x.shape[:-1]
        return (
            np.full(shape, rho),
            np.full(shape, lam),
            np.full(shape, mu),
        )

    return material
