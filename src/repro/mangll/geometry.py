"""Diffeomorphic geometry maps from the forest's reference cubes to space.

The forest's topology is purely integer (paper §II-D); geometry enters
only here, when elements are handed to the discretization.  A
:class:`Geometry` maps per-tree reference coordinates ``u in [0,1]^dim``
to physical points.  Provided maps:

* :class:`MultilinearGeometry` — blends the connectivity's tree corner
  vertices (exact for bricks; the generic default).
* :class:`ShellGeometry` — the cubed-sphere spherical shell of §III-B /
  §IV-A (24 trees, radial local z), gnomonic or equiangular.
* :class:`MoebiusGeometry` — the analytic half-twist band matching
  :func:`repro.p4est.builders.moebius`.

Physical points are always 3-vectors; planar 2D geometries set z = 0 and
the mesh layer works with the leading ``dim`` components.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.p4est.connectivity import Connectivity


class Geometry(ABC):
    """Map from (tree, reference coords in [0,1]^dim) to physical space."""

    dim: int

    @abstractmethod
    def map_points(self, tree: int, u: np.ndarray) -> np.ndarray:
        """Map ``u`` of shape (n, dim) within ``tree`` to (n, 3) points."""

    def locate(self, x: np.ndarray, num_trees: int):
        """Invert the map: (tree id, reference coords) for physical points.

        Generic implementation: per-tree Newton iteration on
        :meth:`map_points` (finite-difference Jacobian), accepting the
        first tree whose reference coordinates land in [0, 1]^dim.
        Returns ``(tree (n,), u (n, dim))`` with tree = -1 where no tree
        contains the point.  Subclasses with analytic inverses override.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
        n = len(x)
        trees = np.full(n, -1, dtype=np.int64)
        uu = np.zeros((n, self.dim))
        tol = 1e-10
        for i in range(n):
            for k in range(num_trees):
                u = np.full((1, self.dim), 0.5)
                ok = False
                for _ in range(60):
                    p = self.map_points(k, u)[0, : 3]
                    r = x[i] - p
                    if np.linalg.norm(r) < tol:
                        ok = True
                        break
                    # Finite-difference Jacobian of the map.
                    J = np.zeros((3, self.dim))
                    h = 1e-7
                    for a in range(self.dim):
                        up = u.copy()
                        up[0, a] += h
                        J[:, a] = (self.map_points(k, up)[0, :3] - p) / h
                    du, *_ = np.linalg.lstsq(J, r, rcond=None)
                    u[0] += np.clip(du, -0.5, 0.5)
                    u = np.clip(u, -0.5, 1.5)
                if ok and np.all(u[0] > -1e-9) and np.all(u[0] < 1 + 1e-9):
                    trees[i] = k
                    uu[i] = np.clip(u[0], 0.0, 1.0)
                    break
        return trees, uu


class MultilinearGeometry(Geometry):
    """Multilinear blend of each tree's corner vertices.

    Exact for affine/brick domains; for curved domains it is the chordal
    approximation of the macro-mesh.
    """

    def __init__(self, conn: Connectivity) -> None:
        self.conn = conn
        self.dim = conn.dim

    def map_points(self, tree: int, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        corners = self.conn.vertices[self.conn.tree_to_vertex[tree]]
        n = len(u)
        out = np.zeros((n, 3))
        for c in range(self.conn.D.num_corners):
            w = np.ones(n)
            for a in range(self.dim):
                b = (c >> a) & 1
                w = w * (u[:, a] if b else (1.0 - u[:, a]))
            out += w[:, None] * corners[c]
        return out


class ShellGeometry(Geometry):
    """The 24-tree cubed-sphere spherical shell map.

    Tree ids follow :func:`repro.p4est.builders.shell`: tree = 4*face +
    2*j + i, with the face's (u, v) axes from the same table, and the
    tree's local z running radially from ``inner_radius`` to
    ``outer_radius``.  ``equiangular=True`` uses the tangent reparametri-
    zation that equalizes angular element sizes (the "modified cubed
    sphere transformation" of §IV-A).
    """

    def __init__(
        self,
        inner_radius: float = 0.55,
        outer_radius: float = 1.0,
        equiangular: bool = True,
    ) -> None:
        if not 0 < inner_radius < outer_radius:
            raise ValueError("require 0 < inner_radius < outer_radius")
        self.dim = 3
        self.r1 = inner_radius
        self.r2 = outer_radius
        self.equiangular = equiangular

    def map_points(self, tree: int, u: np.ndarray) -> np.ndarray:
        from repro.p4est.builders import _SHELL_FACES

        u = np.asarray(u, dtype=np.float64)
        face, rem = divmod(tree, 4)
        j, i = divmod(rem, 2)
        axis, sgn, ua, va = _SHELL_FACES[face]
        uu = (i - 1) + u[:, 0]  # in [-1, 1] across the cap
        vv = (j - 1) + u[:, 1]
        if self.equiangular:
            uu = np.tan(uu * np.pi / 4)
            vv = np.tan(vv * np.pi / 4)
        p = np.zeros((len(u), 3))
        p[:, axis] = sgn
        p[:, ua] = uu
        p[:, va] = vv
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        r = self.r1 + u[:, 2] * (self.r2 - self.r1)
        return p * r[:, None]

    def locate(self, x: np.ndarray, num_trees: int = 24):
        """Analytic inverse of the cubed-sphere map."""
        from repro.p4est.builders import _SHELL_FACES

        x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
        n = len(x)
        trees = np.full(n, -1, dtype=np.int64)
        uu = np.zeros((n, 3))
        r = np.linalg.norm(x, axis=1)
        inside = (r >= self.r1 - 1e-12) & (r <= self.r2 + 1e-12)
        d = x / np.maximum(r, 1e-300)[:, None]
        for idx in np.flatnonzero(inside):
            dv = d[idx]
            face = int(np.argmax(np.abs(dv)))
            sgn = 1 if dv[face] >= 0 else -1
            fidx = next(
                i for i, (a, s, _, _) in enumerate(_SHELL_FACES)
                if a == face and s == sgn
            )
            _, _, ua, va = _SHELL_FACES[fidx]
            gu = dv[ua] / (sgn * dv[face])
            gv = dv[va] / (sgn * dv[face])
            if self.equiangular:
                gu = np.arctan(gu) * 4 / np.pi
                gv = np.arctan(gv) * 4 / np.pi
            if abs(gu) > 1 + 1e-12 or abs(gv) > 1 + 1e-12:
                continue
            i = 1 if gu >= 0 else 0
            j = 1 if gv >= 0 else 0
            trees[idx] = fidx * 4 + j * 2 + i
            uu[idx, 0] = np.clip(gu - (i - 1), 0.0, 1.0)
            uu[idx, 1] = np.clip(gv - (j - 1), 0.0, 1.0)
            uu[idx, 2] = np.clip((r[idx] - self.r1) / (self.r2 - self.r1), 0.0, 1.0)
        return trees, uu


class MoebiusGeometry(Geometry):
    """Analytic half-twist band, consistent with ``builders.moebius``."""

    def __init__(self, width: float = 0.4, n_trees: int = 5) -> None:
        self.dim = 2
        self.w = width
        self.n = n_trees

    def map_points(self, tree: int, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        th = 2 * np.pi * (tree + u[:, 0]) / self.n
        s = self.w * (2 * u[:, 1] - 1.0)
        r = 1.0 + s * np.cos(th / 2)
        out = np.empty((len(u), 3))
        out[:, 0] = r * np.cos(th)
        out[:, 1] = r * np.sin(th)
        out[:, 2] = s * np.sin(th / 2)
        return out


class BrickGeometry(Geometry):
    """Axis-aligned brick of unit trees, safe for periodic gluings.

    Periodic bricks wrap their vertex ids, so the multilinear blend of
    stored vertices folds back on itself; this map places tree
    ``(i, j, k)`` at offset ``(i, j, k)`` directly instead.
    """

    def __init__(self, nx: int, ny: int, nz: int = 1, dim: int = 2) -> None:
        self.dim = dim
        self.n = (nx, ny, nz)

    def map_points(self, tree: int, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        nx, ny, nz = self.n
        k, rem = divmod(tree, nx * ny)
        j, i = divmod(rem, nx)
        out = np.zeros((len(u), 3))
        out[:, 0] = i + u[:, 0]
        out[:, 1] = j + u[:, 1]
        if self.dim == 3:
            out[:, 2] = k + u[:, 2]
        return out


def element_centers(octants, geometry: Geometry) -> np.ndarray:
    """Physical centre of each octant under ``geometry``, shape (n, 3)."""
    half = octants.lens() / 2
    cols = [(c + half) / octants.D.root_len for c in (octants.x, octants.y, octants.z)]
    u = np.stack(cols[: geometry.dim], axis=1)
    out = np.zeros((len(octants), 3))
    for tree in np.unique(octants.tree):
        sel = np.flatnonzero(octants.tree == tree)
        out[sel] = geometry.map_points(int(tree), u[sel])
    return out

