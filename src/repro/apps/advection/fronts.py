"""Four advecting spherical fronts and the rotational velocity field.

The §III-B test tracks four spherical interface fronts transported by a
rigid rotation of the shell.  Each front is a smoothed spherical shell
(a tanh ring of the distance to a moving center); rigid rotation makes
the exact solution available at all times for error measurement, while
the front motion exercises the dynamic coarsen/refine/repartition path
aggressively (the paper reports ~40% of elements coarsened and ~5%
refined per adaptation step, with >99% of elements exchanged in
repartitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


def rotation_velocity(omega: np.ndarray):
    """Rigid-body rotation velocity field v(x) = omega x x."""
    o0, o1, o2 = np.asarray(omega, dtype=np.float64)

    def v(x: np.ndarray) -> np.ndarray:
        # np.cross written out by components: the same two products and one
        # subtraction per entry, without its broadcasting and axis moves.
        x = np.asarray(x, dtype=np.float64)
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty(x.shape)
        out[..., 0] = o1 * x2 - o2 * x1
        out[..., 1] = o2 * x0 - o0 * x2
        out[..., 2] = o0 * x1 - o1 * x0
        return out

    return v


def rotate_points(x: np.ndarray, omega: np.ndarray, t: float) -> np.ndarray:
    """Rotate points by angle |omega| t about the omega axis (Rodrigues)."""
    omega = np.asarray(omega, dtype=np.float64)
    w = np.linalg.norm(omega)
    if w == 0:
        return x.copy()
    k = omega / w
    th = w * t
    c, s = np.cos(th), np.sin(th)
    kx = np.cross(np.broadcast_to(k, x.shape), x)
    kdot = np.einsum("...c,c->...", x, k)
    return c * x + s * kx + (1 - c) * kdot[..., None] * k


@dataclass
class SphericalFronts:
    """Four smoothed spherical fronts advected by a rigid rotation."""

    omega: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    centers: np.ndarray = field(
        default_factory=lambda: np.array(
            [
                [0.75, 0.0, 0.1],
                [-0.2, 0.72, -0.15],
                [0.0, -0.6, 0.4],
                [-0.5, -0.45, -0.3],
            ]
        )
    )
    radius: float = 0.25
    width: float = 0.06

    def centers_at(self, t: float) -> np.ndarray:
        """Front centers rotated to time ``t`` (centers move with the flow)."""
        return rotate_points(self.centers, np.asarray(self.omega), t)

    def value(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """The advected field: superposed tanh shells around each center."""
        # Equivalent to advecting the t=0 field: evaluate at back-rotated x.
        xb = rotate_points(x, np.asarray(self.omega), -t)
        out = np.zeros(x.shape[:-1])
        for c in self.centers:
            d = np.linalg.norm(xb - c, axis=-1)
            out += 0.5 * (1.0 - np.tanh((d - self.radius) / self.width))
        return out

    def front_distance(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Distance to the nearest front surface at time ``t``."""
        cen = self.centers_at(t)
        d = np.full(x.shape[:-1], np.inf)
        for c in cen:
            d = np.minimum(d, np.abs(np.linalg.norm(x - c, axis=-1) - self.radius))
        return d

    def velocity(self):
        return rotation_velocity(np.asarray(self.omega))
