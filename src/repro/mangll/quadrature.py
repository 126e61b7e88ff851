"""Legendre-Gauss-Lobatto nodes, quadrature, and 1D spectral operators.

Everything the nodal spectral-element machinery needs in 1D: LGL and Gauss
nodes/weights, Lagrange interpolation matrices, the differentiation
matrix, and the parent-to-child interpolation operators used on hanging
(2:1 non-conforming) faces and edges (paper §II-E: "the unknowns on the
larger face are interpolated to align with the unknowns on the four
connecting smaller faces").

All operators act on the reference interval [-1, 1].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np


def legendre(n: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_n evaluated by the three-term recurrence."""
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return x.copy()
    pm, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
    return p


def legendre_deriv(n: int, x: np.ndarray) -> np.ndarray:
    """First derivative P_n' via the standard identity."""
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.zeros_like(x)
    pn = legendre(n, x)
    pnm = legendre(n - 1, x)
    denom = x * x - 1.0
    safe = np.abs(denom) > 1e-14
    out = np.empty_like(x)
    out[safe] = n * (x[safe] * pn[safe] - pnm[safe]) / denom[safe]
    # Endpoint values: P_n'(+-1) = (+-1)^(n-1) n(n+1)/2.
    edge = ~safe
    if edge.any():
        sgn = np.where(x[edge] > 0, 1.0, (-1.0) ** (n - 1))
        out[edge] = sgn * n * (n + 1) / 2.0
    return out


@lru_cache(maxsize=64)
def gauss_lobatto(n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """LGL nodes and weights on [-1, 1] (``n_points >= 2``).

    Nodes are the roots of ``(1 - x^2) P'_{n-1}(x)``; weights are
    ``2 / (n(n-1) P_{n-1}(x)^2)``.  Used both as interpolation nodes and
    quadrature, which renders the dG mass matrix diagonal (§III-B).
    """
    n = n_points
    if n < 2:
        raise ValueError("LGL rule needs at least 2 points")
    if n == 2:
        x = np.array([-1.0, 1.0])
    else:
        # Chebyshev-Gauss-Lobatto initial guess, then Newton on P'_{n-1}.
        x = -np.cos(np.pi * np.arange(n) / (n - 1))
        deg = n - 1
        for _ in range(100):
            p = legendre(deg, x)
            dp = legendre_deriv(deg, x)
            # f = (1-x^2) P' ; f' = -2x P' + (1-x^2) P''.
            # Use the Legendre ODE: (1-x^2) P'' = 2x P' - deg(deg+1) P.
            f = (1 - x * x) * dp
            fp = -2 * x * dp + (2 * x * dp - deg * (deg + 1) * p)
            interior = slice(1, n - 1)
            step = np.zeros_like(x)
            step[interior] = f[interior] / fp[interior]
            x = x - step
            if np.max(np.abs(step)) < 1e-15:
                break
        x[0], x[-1] = -1.0, 1.0
    p = legendre(n - 1, x)
    w = 2.0 / (n * (n - 1) * p * p)
    return x, w


@lru_cache(maxsize=64)
def gauss_legendre(n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (exact to degree 2n-1)."""
    if n_points < 1:
        raise ValueError("Gauss rule needs at least 1 point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return x, w


def lagrange_interpolation_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Matrix mapping nodal values at ``src`` to values at ``dst``.

    Entry (i, j) is the j-th Lagrange basis (over src) at dst[i].
    Computed with barycentric weights for stability, all rows at once:
    row i is ``bw / d`` over its own sum (a row-wise reduction sums each
    row as a 1-D sum would), and a row whose point hits a source node
    (``|d| < 1e-14``) is the unit vector of the first node it hits.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    # Barycentric weights.
    bw = np.ones(n)
    for j in range(n):
        diff = src[j] - np.delete(src, j)
        bw[j] = 1.0 / np.prod(diff)
    d = dst[:, None] - src[None, :]
    hit = np.abs(d) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw / d
        out = terms / terms.sum(axis=1, keepdims=True)
    rows = np.flatnonzero(hit.any(axis=1))
    out[rows] = 0.0
    out[rows, np.argmax(hit[rows], axis=1)] = 1.0
    return out


@lru_cache(maxsize=64)
def differentiation_matrix(n_points: int) -> np.ndarray:
    """Spectral differentiation matrix on the LGL nodes.

    ``(D u)[i] = u'(x_i)`` for the degree-(n-1) interpolant of u.
    """
    x, _ = gauss_lobatto(n_points)
    n = n_points
    bw = np.ones(n)
    for j in range(n):
        bw[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(D[i, np.arange(n) != i])
    return D


@lru_cache(maxsize=64)
def child_interpolation_matrices(n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Parent-to-child 1D interpolation for 2:1 hanging entities.

    Returns (I0, I1): I0 maps parent LGL nodal values on [-1, 1] to values
    at the child nodes of the sub-interval [-1, 0]; I1 to those of [0, 1].
    Tensor products of these realize the hanging face/edge interpolation
    of §II-E.
    """
    x, _ = gauss_lobatto(n_points)
    lo = 0.5 * (x - 1.0)  # child 0 nodes mapped into parent coords
    hi = 0.5 * (x + 1.0)
    return (
        lagrange_interpolation_matrix(x, lo),
        lagrange_interpolation_matrix(x, hi),
    )


@lru_cache(maxsize=64)
def mass_1d(n_points: int) -> np.ndarray:
    """Diagonal LGL mass (the lumped 1D mass on [-1, 1])."""
    _, w = gauss_lobatto(n_points)
    return np.diag(w)


def vandermonde(n_points: int, x: np.ndarray) -> np.ndarray:
    """Legendre Vandermonde: column j is normalized P_j at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((len(x), n_points))
    for j in range(n_points):
        norm = np.sqrt((2 * j + 1) / 2.0)
        out[:, j] = norm * legendre(j, x)
    return out
