"""A PREM-style radial earth model (Dziewonski & Anderson 1981).

Piecewise-linear-in-radius density and seismic velocities with the major
PREM discontinuities (inner-core boundary, core-mantle boundary, the 670,
400 and 220 km discontinuities, the Moho, and the crust layers).  Layer
endpoint values approximate the published PREM tables; the piecewise
polynomial degree is reduced to linear, which preserves exactly what the
paper's experiments exercise: the factor-of-several wave-speed contrasts
and sharp jumps that drive wavelength-adapted meshing (Fig. 8) and the
element-size distribution of the strong-scaling mesh (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

EARTH_RADIUS_KM = 6371.0
CMB_RADIUS_KM = 3480.0
ICB_RADIUS_KM = 1221.5

# (r_inner, r_outer, rho_in, rho_out, vp_in, vp_out, vs_in, vs_out)
# Radii in km, density in g/cm^3, velocities in km/s.  Values are the
# approximate PREM endpoints of each layer.
_LAYERS = (
    (0.0, 1221.5, 13.09, 12.76, 11.26, 11.03, 3.67, 3.50),  # inner core
    (1221.5, 3480.0, 12.17, 9.90, 10.36, 8.06, 0.0, 0.0),  # outer core (fluid)
    (3480.0, 3630.0, 5.57, 5.51, 13.72, 13.68, 7.26, 7.27),  # D''
    (3630.0, 5600.0, 5.51, 4.66, 13.68, 11.07, 7.27, 6.24),  # lower mantle
    (5600.0, 5701.0, 4.66, 4.44, 11.07, 10.75, 6.24, 5.95),  # to the 670
    (5701.0, 5971.0, 4.38, 3.99, 10.27, 8.91, 5.61, 4.77),  # transition zone
    (5971.0, 6151.0, 3.98, 3.54, 8.91, 8.08, 4.77, 4.47),  # to the 220
    (6151.0, 6291.0, 3.44, 3.38, 8.02, 8.01, 4.44, 4.43),  # LVZ / LID
    (6291.0, 6346.6, 3.38, 3.38, 8.01, 8.00, 4.43, 4.42),  # LID to Moho
    (6346.6, 6356.0, 2.90, 2.90, 6.80, 6.80, 3.90, 3.90),  # lower crust
    (6356.0, 6371.0, 2.60, 2.60, 5.80, 5.80, 3.20, 3.20),  # upper crust
)


@dataclass(frozen=True)
class PREM:
    """Radial earth model evaluator.

    ``normalize_radius`` maps the geometric mesh radius onto earth radii:
    evaluations take radii in mesh units where ``outer_radius_mesh``
    corresponds to 6371 km.
    """

    outer_radius_mesh: float = 1.0

    def _to_km(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=np.float64) * (EARTH_RADIUS_KM / self.outer_radius_mesh)

    def evaluate(self, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, vp, vs) at mesh radii ``r`` (clipped into [0, surface])."""
        rk = np.clip(self._to_km(r), 0.0, EARTH_RADIUS_KM)
        rho = np.empty_like(rk)
        vp = np.empty_like(rk)
        vs = np.empty_like(rk)
        filled = np.zeros(rk.shape, dtype=bool)
        for r0, r1, d0, d1, p0, p1, s0, s1 in _LAYERS:
            sel = (~filled) & (rk <= r1)
            if not sel.any():
                continue
            t = (rk[sel] - r0) / max(r1 - r0, 1e-12)
            rho[sel] = d0 + (d1 - d0) * t
            vp[sel] = p0 + (p1 - p0) * t
            vs[sel] = s0 + (s1 - s0) * t
            filled |= sel
        rho[~filled] = 2.6
        vp[~filled] = 5.8
        vs[~filled] = 3.2
        return rho, vp, vs

    def density(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(np.linalg.norm(x, axis=-1))[0]

    def lame_parameters(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, lambda, mu) at points ``x`` (consistent units)."""
        rho, vp, vs = self.evaluate(np.linalg.norm(x, axis=-1))
        mu = rho * vs**2
        lam = rho * vp**2 - 2 * mu
        return rho, lam, mu

    def wave_speeds(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        _, vp, vs = self.evaluate(np.linalg.norm(x, axis=-1))
        return vp, vs

    def min_wavelength(self, x: np.ndarray, frequency: float) -> np.ndarray:
        """Minimum local wavelength (uses vs where solid, vp in fluids)."""
        vp, vs = self.wave_speeds(x)
        vmin = np.where(vs > 0.1, vs, vp)
        return vmin / frequency


def prem_model(outer_radius_mesh: float = 1.0) -> PREM:
    """Convenience constructor."""
    return PREM(outer_radius_mesh)
