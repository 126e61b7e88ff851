"""Smoothed-aggregation algebraic multigrid.

A from-scratch stand-in for the ML (Trilinos) smoothed-aggregation solver
the paper uses to precondition the (1,1) block of the Stokes operator
(§IV-A): strength-of-connection filtering, greedy aggregation, a
prolongator smoothed by one damped-Jacobi step, Galerkin coarse operators,
and a V-cycle with symmetric Gauss-Seidel (or Chebyshev) smoothing and a
dense coarsest solve.

Everything a cycle needs is prepared once in :func:`smoothed_aggregation`
(the factored Gauss-Seidel triangle, the restriction ``P.T`` as CSR), so
applying the V-cycle builds no sparse matrix.  Nodes that symmetric
Dirichlet elimination decoupled from the rest of the system are solved
exactly (``b / d``) and kept out of the hierarchy.

Supports blocked (vector) problems via ``block_size``: aggregation is
done on the scalar strength graph of block norms and the tentative
prolongator carries one column per aggregate per component (the standard
rigid-body-free treatment for elliptic vector problems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def row_ids(A: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of CSR ``A``."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def kept_indptr(rows: np.ndarray, keep: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of the entries where ``keep`` (entry rows ``rows``)."""
    out = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=out[1:])
    return out


def _masked(A: sp.csr_matrix, rows: np.ndarray, keep: np.ndarray) -> sp.csr_matrix:
    """CSR ``A``'s entries where ``keep``, in stored order, without COO."""
    indptr = kept_indptr(rows, keep, A.shape[0])
    return sp.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=A.shape)


def strength_graph(A: sp.csr_matrix, theta: float = 0.02) -> sp.csr_matrix:
    """Symmetric strength-of-connection filter.

    Keeps entries with |a_ij| >= theta * sqrt(|a_ii a_jj|), in stored order.
    """
    A = A.tocsr()
    d = np.abs(A.diagonal())
    scale = np.sqrt(np.where(d > 0, d, 1.0))
    rows = row_ids(A)
    keep = np.abs(A.data) >= theta * scale[rows] * scale[A.indices]
    keep |= rows == A.indices
    return _masked(A, rows, keep)


def aggregate(S: sp.csr_matrix) -> np.ndarray:
    """Greedy aggregation on the strength graph.

    Pass 1 forms root-point aggregates from fully-unaggregated
    neighborhoods; pass 2 attaches leftovers to an adjacent aggregate;
    pass 3 makes singletons of isolated points.  Returns the aggregate id
    per node.
    """
    # Lists: a row's few neighbours cost less one by one than as arrays.
    n = S.shape[0]
    agg = [-1] * n
    indptr, indices = S.indptr.tolist(), S.indices.tolist()
    next_agg = 0
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if all(agg[j] == -1 for j in nbrs):
            for j in nbrs:
                agg[j] = next_agg
            agg[i] = next_agg
            next_agg += 1
    for i in range(n):
        if agg[i] == -1:
            agg[i] = next(
                (agg[j] for j in indices[indptr[i] : indptr[i + 1]] if agg[j] != -1), -1
            )
    out = np.array(agg, dtype=np.int64)
    lone = np.flatnonzero(out == -1)
    out[lone] = next_agg + np.arange(len(lone))
    return out


def tentative_prolongator(
    agg: np.ndarray, n_agg: int, block_size: int = 1
) -> sp.csr_matrix:
    """Piecewise-constant (per component) prolongator from aggregates."""
    n = len(agg) * block_size
    cols = np.repeat(agg * block_size, block_size) + np.tile(np.arange(block_size), len(agg))
    return sp.csr_matrix((np.ones(n), cols, np.arange(n + 1)), shape=(n, n_agg * block_size))


def _safe_reciprocal(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) > 1e-300, 1.0 / d, 1.0)


def estimate_rho(A: sp.csr_matrix, iters: int = 15, seed: int = 7) -> float:
    """Power-iteration estimate of the spectral radius of D^{-1}A."""
    n = A.shape[0]
    d = A.diagonal()
    dinv = _safe_reciprocal(d)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    rho = 1.0
    for _ in range(iters):
        y = dinv * (A @ x)
        ny = float(np.linalg.norm(y))
        if ny == 0:
            break
        rho = ny
        x = y / ny
    return max(rho, 1e-12)


@dataclass
class Level:
    """One level of the hierarchy with its smoother data, prepared once."""

    A: sp.csr_matrix
    P: sp.csr_matrix  # prolongator to this level from the next
    R: sp.csr_matrix  # restriction P.T, stored as CSR
    dinv: np.ndarray
    smoother: str = "sgs"
    # Factored U + D (SGS levels only).  A triangular matrix factored in natural order
    # without pivoting has no fill, so ``.solve`` is the backward
    # Gauss-Seidel sweep and ``.solve(r, trans="T")`` the forward one:
    # (U + D)^T = L + D for symmetric A.
    upper: Optional[spla.SuperLU] = None
    rho: float = 2.0  # spectral-radius estimate of D^-1 A (for Chebyshev)


def _factor_triangle(T: sp.spmatrix) -> spla.SuperLU:
    return spla.splu(
        sp.csc_matrix(T),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"Equil": False},
    )


@dataclass
class AMGHierarchy:
    """A smoothed-aggregation multigrid hierarchy with a V-cycle apply.

    ``coupled`` lists the rows the levels act on; the remaining rows are
    decoupled from every other node and are solved exactly with ``dinv``
    (``None``: every row is coupled).
    """

    levels: List[Level]
    coarse_inv: np.ndarray  # dense inverse of the coarsest operator
    presmooth: int = 1
    postsmooth: int = 1
    cycles_applied: int = 0
    coupled: Optional[np.ndarray] = None
    dinv: Optional[np.ndarray] = None

    @property
    def num_levels(self) -> int:
        """Levels of the hierarchy, the dense coarsest one included."""
        return len(self.levels) + 1

    @property
    def level_sizes(self) -> List[int]:
        """Rows of each level's operator, the dense coarsest one last."""
        return [lvl.A.shape[0] for lvl in self.levels] + [self.coarse_inv.shape[0]]

    def operator_complexity(self) -> float:
        """Stored nonzeros of the sparse levels over those of the finest
        (1.0 with no sparse level); the dense coarsest inverse is not
        counted."""
        if not self.levels:
            return 1.0
        fine = self.levels[0].A.nnz
        total = sum(lvl.A.nnz for lvl in self.levels)
        return total / max(fine, 1)

    def _smooth(
        self, lvl: Level, x: Optional[np.ndarray], b: np.ndarray, sweeps: int
    ) -> np.ndarray:
        """``sweeps`` smoothing steps on ``A x = b``.

        ``x=None`` is the zero initial guess, whose residual is ``b``
        itself (no matvec).
        """
        if lvl.smoother == "chebyshev":
            return self._chebyshev(lvl, x, b, degree=max(2, sweeps + 1))
        assert lvl.upper is not None
        for _ in range(sweeps):
            r = b if x is None else b - lvl.A @ x
            dx = lvl.upper.solve(r, trans="T")
            x = dx if x is None else x + dx
            x = x + lvl.upper.solve(b - lvl.A @ x)
        return np.zeros_like(b) if x is None else x

    def _chebyshev(
        self, lvl: Level, x: Optional[np.ndarray], b: np.ndarray, degree: int
    ) -> np.ndarray:
        """Chebyshev polynomial smoother on [rho/alpha_ratio, rho] of
        D^-1 A — the communication-friendly smoother ML favours at scale
        (no triangular solves, only matvecs)."""
        lam_max = 1.1 * lvl.rho
        lam_min = lam_max / 30.0
        theta = 0.5 * (lam_max + lam_min)
        delta = 0.5 * (lam_max - lam_min)
        r = lvl.dinv * (b if x is None else b - lvl.A @ x)
        if x is None:
            x = np.zeros_like(b)
        sigma = theta / delta
        rho_k = 1.0 / sigma
        d = r / theta
        for _ in range(degree):
            x = x + d
            r = r - lvl.dinv * (lvl.A @ d)
            rho_next = 1.0 / (2.0 * sigma - rho_k)
            d = rho_next * rho_k * d + (2.0 * rho_next / delta) * r
            rho_k = rho_next
        return x

    def _cycle(self, b: np.ndarray, level: int) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse_inv @ b
        lvl = self.levels[level]
        x = self._smooth(lvl, None, b, self.presmooth)
        xc = self._cycle(lvl.R @ (b - lvl.A @ x), level + 1)
        return self._smooth(lvl, x + lvl.P @ xc, b, self.postsmooth)

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle applied to residual equation A x = b, x0 = 0."""
        self.cycles_applied += 1
        if self.coupled is None or self.dinv is None:
            return self._cycle(b, 0)
        x = self.dinv * b
        x[self.coupled] = self._cycle(b[self.coupled], 0)
        return x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.vcycle(b)


def _off_null_mode(inv: np.ndarray, eps: float) -> np.ndarray:
    """``inv``, a coarsest inverse regularized by ``eps``, projected off
    (and symmetrized about) a null mode such as a pure-Neumann constant,
    which would come back at ``1/eps`` and amplify rounding: three power
    steps find it, a Rayleigh quotient within 10x of ``1/eps`` marks it."""
    x = np.ones(len(inv))
    for _ in range(3):
        x = inv @ x
        x /= np.linalg.norm(x)
    if x @ inv @ x < 0.1 / eps:
        return inv
    Q = np.eye(len(x)) - np.outer(x, x)
    Q = Q @ inv @ Q
    return 0.5 * (Q + Q.T)  # symmetric bit for bit


def _coupled_rows(A: sp.csr_matrix, block_size: int) -> np.ndarray:
    """Mask of the rows whose node couples to another node.

    A node is decoupled when none of its ``block_size`` rows has a
    nonzero off-diagonal entry — what symmetric Dirichlet elimination
    leaves behind.
    """
    rows = row_ids(A)
    off = (rows != A.indices) & (A.data != 0)
    row_coupled = np.bincount(rows[off], minlength=A.shape[0]) > 0
    node_coupled = row_coupled.reshape(-1, block_size).any(axis=1)
    return np.repeat(node_coupled, block_size)


def smoothed_aggregation(
    A: sp.spmatrix,
    theta: float = 0.02,
    max_levels: int = 12,
    coarse_size: int = 128,
    block_size: int = 1,
    presmooth: int = 1,
    postsmooth: int = 1,
    smoother: str = "sgs",
) -> AMGHierarchy:
    """Build a smoothed-aggregation hierarchy for (block-)SPD ``A``.

    ``smoother`` is ``"sgs"`` (symmetric Gauss-Seidel, the default, as in
    ML) or ``"chebyshev"`` (polynomial, matvec-only — ML's choice at high
    core counts).

    Coarsening stops once a level has at most ``coarse_size`` rows, ML's
    default ``coarse: max size``; that level is solved densely.

    Decoupled nodes (see :func:`_coupled_rows`) are solved exactly by the
    V-cycle and take no part in the hierarchy, so no level and no coarse
    solve carries them.
    """
    if smoother not in ("sgs", "chebyshev"):
        raise ValueError("smoother must be 'sgs' or 'chebyshev'")
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if block_size < 1 or A.shape[0] % block_size:
        raise ValueError("block_size must divide the matrix dimension")
    coupled: Optional[np.ndarray] = None
    dinv_fine: Optional[np.ndarray] = None
    keep = _coupled_rows(A, block_size)
    if not keep.all():
        coupled = np.flatnonzero(keep)
        dinv_fine = _safe_reciprocal(A.diagonal())
        A = A[coupled][:, coupled]
    elif not A.has_canonical_format:
        A = A.copy()
    # aggregate() reads rows in stored order: every level is sorted.
    A.sum_duplicates()
    levels: List[Level] = []
    Acur = A
    # The near-null candidate (the constant) per node, as each level sees it.
    cand = np.ones(A.shape[0] // block_size)
    while len(levels) < max_levels - 1 and Acur.shape[0] > coarse_size:
        nb = Acur.shape[0] // block_size
        Ascal = Acur
        if block_size > 1:
            # Scalar strength graph from block Frobenius norms.
            Ab = Acur.tobsr((block_size, block_size))
            norms = np.sqrt((Ab.data * Ab.data).sum(axis=(1, 2)))
            Ascal = sp.csr_matrix((norms, Ab.indices, Ab.indptr), shape=(nb, nb))
            Ascal.sort_indices()
        agg = aggregate(strength_graph(Ascal, theta))
        n_agg = int(agg.max()) + 1
        if n_agg >= nb:  # no coarsening progress
            break
        T = tentative_prolongator(agg, n_agg, block_size)
        # QR of the candidate per aggregate: column k holds its members'
        # candidate over its norm on k, so T carries the fine candidate to
        # that norm exactly, and the norm is the next level's candidate.
        norm = np.sqrt(np.bincount(agg, weights=cand * cand))
        T.data = np.repeat(cand / norm[agg], block_size)
        cand = norm
        rho = estimate_rho(Acur)
        dinv = _safe_reciprocal(Acur.diagonal())
        AT = Acur @ T
        AT.data *= np.repeat(4.0 / (3.0 * rho) * dinv, np.diff(AT.indptr))
        P = T - AT
        R = sp.csr_matrix(P.T)
        upper: Optional[spla.SuperLU] = None
        if smoother == "sgs":
            rows = row_ids(Acur)
            upper = _factor_triangle(_masked(Acur, rows, rows <= Acur.indices))
        levels.append(Level(Acur, P, R, dinv, smoother, upper, rho))
        Acur = R @ Acur @ P
        Acur.sum_duplicates()

    dense = Acur.toarray()
    # Regularize a possibly singular coarse problem (pure Neumann blocks).
    eps = 1e-12 * max(np.abs(dense).max(initial=0.0), 1.0)
    coarse_inv = _off_null_mode(np.linalg.inv(dense + eps * np.eye(len(dense))), eps)
    return AMGHierarchy(
        levels, coarse_inv, presmooth, postsmooth, coupled=coupled, dinv=dinv_fine
    )
