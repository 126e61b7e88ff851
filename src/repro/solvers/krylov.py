"""Krylov methods with pluggable inner products (for distributed use).

CG, MINRES, and GMRES over abstract operators: ``A`` and ``M`` (the
preconditioner) are callables ``x -> y``; ``dot`` is the inner product,
which distributed callers replace with an owned-dof dot plus allreduce so
every rank sees identical iterates (how Rhea's Krylov loops run on the
machine).  All methods record per-iteration residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

Operator = Callable[[np.ndarray], np.ndarray]
Dot = Callable[[np.ndarray, np.ndarray], float]


@dataclass
class SolveResult:
    """Outcome of a Krylov solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: List[float] = field(default_factory=list)


def _default_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def cg(
    A: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    M: Optional[Operator] = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    dot: Dot = _default_dot,
) -> SolveResult:
    """Preconditioned conjugate gradients for SPD systems."""
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - A(x)
    z = M(r) if M is not None else r
    p = z.copy()
    rz = dot(r, z)
    bnorm = np.sqrt(max(dot(b, b), 1e-300))
    residuals = [np.sqrt(max(dot(r, r), 0.0)) / bnorm]
    if residuals[-1] <= tol:
        return SolveResult(x, True, 0, residuals)
    for it in range(1, maxiter + 1):
        Ap = A(p)
        alpha = rz / dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        rn = np.sqrt(max(dot(r, r), 0.0)) / bnorm
        residuals.append(rn)
        if rn <= tol:
            return SolveResult(x, True, it, residuals)
        z = M(r) if M is not None else r
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(x, False, maxiter, residuals)


def minres(
    A: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    M: Optional[Operator] = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    dot: Dot = _default_dot,
) -> SolveResult:
    """Preconditioned MINRES for symmetric (possibly indefinite) systems.

    ``M`` must be symmetric positive definite (the paper's block-diagonal
    Stokes preconditioner is).  Standard Paige-Saunders recurrence in the
    M-inner product.  With ``x0=None`` it applies ``M`` once per iteration
    and once before the first.
    """
    # Elman-Silvester-Wathen formulation of preconditioned MINRES.
    x = np.zeros_like(b) if x0 is None else x0.copy()
    v_prev = np.zeros_like(b)
    v = b.copy() if x0 is None else b - A(x)
    z = M(v) if M is not None else v.copy()
    gamma_prev = 1.0
    gamma = np.sqrt(max(dot(z, v), 0.0))
    # From a zero guess the first residual is b, and M(b) is z.
    bz = z if x0 is None else (M(b) if M is not None else b)
    bnorm = np.sqrt(max(dot(b, bz), 1e-300))
    eta = gamma
    s_prev = s = 0.0
    c_prev = c = 1.0
    w = np.zeros_like(b)
    w_prev = np.zeros_like(b)
    residuals = [gamma / bnorm]
    if gamma == 0.0 or residuals[-1] <= tol:
        return SolveResult(x, True, 0, residuals)

    for it in range(1, maxiter + 1):
        zh = z / gamma
        q = A(zh)
        delta = dot(q, zh)
        v_next = q - (delta / gamma) * v - (gamma / gamma_prev) * v_prev
        z_next = M(v_next) if M is not None else v_next.copy()
        gamma_next = np.sqrt(max(dot(z_next, v_next), 0.0))

        alpha0 = c * delta - c_prev * s * gamma
        alpha1 = np.hypot(alpha0, gamma_next)
        alpha2 = s * delta + c_prev * c * gamma
        alpha3 = s_prev * gamma
        c_prev, s_prev = c, s
        c = alpha0 / alpha1 if alpha1 else 1.0
        s = gamma_next / alpha1 if alpha1 else 0.0

        w_next = (zh - alpha3 * w_prev - alpha2 * w) / alpha1
        x += (c * eta) * w_next
        eta = -s * eta

        v_prev, v = v, v_next
        w_prev, w = w, w_next
        z = z_next
        gamma_prev, gamma = gamma, gamma_next

        residuals.append(abs(eta) / bnorm)
        if residuals[-1] <= tol or gamma_next == 0.0:
            return SolveResult(x, True, it, residuals)
    return SolveResult(x, False, maxiter, residuals)


def gmres(
    A: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    M: Optional[Operator] = None,
    tol: float = 1e-10,
    maxiter: int = 200,
    restart: int = 50,
    dot: Dot = _default_dot,
) -> SolveResult:
    """Restarted GMRES with left preconditioning."""
    x = np.zeros_like(b) if x0 is None else x0.copy()
    bprec = M(b) if M is not None else b
    bnorm = np.sqrt(max(dot(bprec, bprec), 1e-300))
    residuals: List[float] = []
    total_it = 0
    while total_it < maxiter:
        r = b - A(x)
        z = M(r) if M is not None else r
        beta = np.sqrt(max(dot(z, z), 0.0))
        residuals.append(beta / bnorm)
        if residuals[-1] <= tol:
            return SolveResult(x, True, total_it, residuals)
        m = min(restart, maxiter - total_it)
        V = [z / beta]
        H = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = beta
        cs = np.zeros(m)
        sn = np.zeros(m)
        k_done = 0
        for k in range(m):
            w = A(V[k])
            w = M(w) if M is not None else w
            for i in range(k + 1):
                H[i, k] = dot(w, V[i])
                w = w - H[i, k] * V[i]
            H[k + 1, k] = np.sqrt(max(dot(w, w), 0.0))
            if H[k + 1, k] > 1e-300:
                V.append(w / H[k + 1, k])
            else:
                V.append(w)
            # Apply accumulated rotations.
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = np.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom if denom else 1.0
            sn[k] = H[k + 1, k] / denom if denom else 0.0
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total_it += 1
            residuals.append(abs(g[k + 1]) / bnorm)
            if residuals[-1] <= tol:
                break
        y = np.linalg.solve(H[:k_done, :k_done], g[:k_done])
        for i in range(k_done):
            x = x + y[i] * V[i]
        if residuals[-1] <= tol:
            return SolveResult(x, True, total_it, residuals)
    return SolveResult(x, False, total_it, residuals)
