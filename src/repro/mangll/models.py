"""The scalar advection flux model of the dG solver.

:class:`AdvectionModel` implements the upwind nodal dG discretization of
equation (1) of the paper, ``dC/dt + u . grad C = 0``, in conservative
form for divergence-free velocity fields.  The paper's other dG model,
dGea's velocity-strain elastics (§IV-B, whose fluid regions are the
same model with mu = 0), lives in :mod:`repro.apps.dgea`.  Both declare
the ``lowering_kind`` the kernel compiler lowers them by
(:func:`repro.mangll.compiler.model_kind`).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

Velocity = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


class AdvectionModel:
    """Upwind dG flux for scalar advection by a given velocity field.

    ``velocity`` is either a constant vector or a callable ``v(x)`` over
    node coordinate arrays ``(..., dim) -> (..., dim)``.  ``inflow`` gives
    the Dirichlet state on inflow boundary faces (default 0); outflow
    boundaries are handled by upwinding automatically.
    """

    lowering_kind = "advection"

    def __init__(
        self,
        dim: int,
        velocity: Velocity,
        inflow: float = 0.0,
    ) -> None:
        self.dim = dim
        self.nfields = 1
        self._inflow = inflow
        if callable(velocity):
            self._vel = velocity
        else:
            v = np.asarray(velocity, dtype=np.float64).reshape(-1)[:dim]
            self._vel = lambda x: np.broadcast_to(v, x.shape[:-1] + (dim,))

    def velocity(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._vel(x[..., : self.dim]))

    def volume_flux(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        v = self.velocity(x)
        return q[..., :, None] * v[..., None, :]

    def numerical_flux(
        self, qm: np.ndarray, qp: np.ndarray, n: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        v = self.velocity(x)
        vn = np.einsum("...c,...c->...", v, n[..., : self.dim])
        central = 0.5 * vn[..., None] * (qm + qp)
        upwind = 0.5 * np.abs(vn)[..., None] * (qm - qp)
        return central + upwind

    def boundary_state(
        self, qm: np.ndarray, n: np.ndarray, x: np.ndarray, t: float
    ) -> np.ndarray:
        v = self.velocity(x)
        vn = np.einsum("...c,...c->...", v, n[..., : self.dim])
        # Inflow (v.n < 0): prescribed state; outflow: copy (pure upwind).
        return np.where(vn[..., None] < 0, self._inflow, qm)

    def max_wave_speed(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        v = self.velocity(x)
        return np.linalg.norm(v, axis=-1).max(axis=-1)
