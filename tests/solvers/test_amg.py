"""Tests for smoothed-aggregation AMG: components, V-cycle convergence,
mesh-independence, and use as a CG preconditioner."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.amg import (
    AMGHierarchy,
    aggregate,
    estimate_rho,
    smoothed_aggregation,
    strength_graph,
    tentative_prolongator,
)
from repro.solvers.krylov import cg


def poisson_2d(n):
    """Standard 5-point Laplacian on an n x n grid (Dirichlet)."""
    I = sp.identity(n)
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def neumann_2d(n):
    """The 5-point Laplacian with natural boundaries: constants are null."""
    I = sp.identity(n)
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
    T[0, 0] = T[n - 1, n - 1] = 1.0
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def elasticity_like(n):
    """A 2-component coupled elliptic operator (block Laplacian + coupling)."""
    A = poisson_2d(n)
    m = A.shape[0]
    C = sp.diags(np.full(m, 0.2))
    top = sp.hstack([2 * A, C])
    bot = sp.hstack([C, 2 * A])
    M = sp.vstack([top, bot]).tocsr()
    # Interleave components so block_size=2 refers to contiguous dofs.
    perm = np.arange(2 * m).reshape(2, m).T.ravel()
    P = sp.csr_matrix((np.ones(2 * m), (np.arange(2 * m), perm)))
    return (P @ M @ P.T).tocsr()


def test_strength_graph_keeps_diagonal_and_strong():
    A = sp.csr_matrix(np.array([[2.0, -1.0, 1e-6], [-1.0, 2.0, 0.0], [1e-6, 0.0, 2.0]]))
    S = strength_graph(A, theta=0.1)
    d = S.toarray()
    assert d[0, 1] != 0 and d[1, 0] != 0
    assert d[0, 2] == 0
    assert all(d[i, i] != 0 for i in range(3))


def test_aggregate_covers_all_nodes():
    A = poisson_2d(12)
    S = strength_graph(A)
    agg = aggregate(S)
    assert agg.min() >= 0
    n_agg = agg.max() + 1
    assert n_agg < A.shape[0] / 2  # genuine coarsening
    # Every aggregate nonempty.
    assert len(np.unique(agg)) == n_agg


def test_tentative_prolongator_partition():
    agg = np.array([0, 0, 1, 1, 2])
    T = tentative_prolongator(agg, 3)
    np.testing.assert_array_equal(T.sum(axis=1).ravel(), 1)
    Tb = tentative_prolongator(agg, 3, block_size=2)
    assert Tb.shape == (10, 6)


def test_estimate_rho_reasonable():
    A = poisson_2d(20)
    rho = estimate_rho(A)
    # D^-1 A for the Laplacian has spectral radius just under 2.
    assert 1.5 < rho < 2.05


@pytest.mark.parametrize("n", [16, 24])
def test_vcycle_reduces_error(n):
    A = poisson_2d(n)
    ml = smoothed_aggregation(A)
    rng = np.random.default_rng(0)
    xstar = rng.standard_normal(A.shape[0])
    b = A @ xstar
    x = np.zeros_like(b)
    norms = [np.linalg.norm(b)]
    for _ in range(12):
        x = x + ml.vcycle(b - A @ x)
        norms.append(np.linalg.norm(b - A @ x))
    factors = [norms[i + 1] / norms[i] for i in range(4, 11)]
    assert max(factors) < 0.35, factors  # healthy SA-AMG contraction
    np.testing.assert_allclose(x, xstar, atol=1e-3)


def test_convergence_mesh_independent():
    """Iteration count to 1e-8 stays ~flat across problem sizes (the
    optimal-scalability property demonstrated for the paper's solver)."""
    counts = []
    for n in (12, 24, 48):
        A = poisson_2d(n)
        ml = smoothed_aggregation(A)
        b = np.ones(A.shape[0])
        res = cg(lambda v: A @ v, b, M=ml.vcycle, tol=1e-8, maxiter=100)
        assert res.converged
        counts.append(res.iterations)
    assert max(counts) <= min(counts) + 6, counts
    assert max(counts) < 25


def test_amg_preconditioned_cg_beats_plain():
    A = poisson_2d(32)
    b = np.ones(A.shape[0])
    ml = smoothed_aggregation(A)
    plain = cg(lambda v: A @ v, b, tol=1e-8, maxiter=2000)
    prec = cg(lambda v: A @ v, b, M=ml.vcycle, tol=1e-8, maxiter=200)
    assert prec.converged
    assert prec.iterations < plain.iterations / 4


def test_block_problem():
    A = elasticity_like(10)
    ml = smoothed_aggregation(A, block_size=2)
    b = np.ones(A.shape[0])
    res = cg(lambda v: A @ v, b, M=ml.vcycle, tol=1e-8, maxiter=100)
    assert res.converged
    assert res.iterations < 40


def test_hierarchy_structure():
    A = poisson_2d(32)
    ml = smoothed_aggregation(A)
    assert ml.num_levels >= 3
    assert ml.operator_complexity() < 2.0
    # Coarsest level is genuinely small.
    assert ml.levels[-1].P.shape[1] <= 200


def test_coarse_operators_keep_the_null_space():
    """Each level carries the constant as the previous level's aggregate
    norms, so the coarsest Galerkin operator of a pure-Neumann problem is
    still singular.  With unit-normalized aggregates instead, a constant
    on a coarse level is not the image of the fine constant, and the
    smallest eigenvalue of this coarsest operator (400 -> 70 -> 10 -> 2
    rows) read 2.1e-4."""
    ml = smoothed_aggregation(neumann_2d(20), coarse_size=8)
    assert len(ml.levels) >= 2  # at least two coarsenings
    lvl = ml.levels[-1]
    lam = np.linalg.eigvalsh((lvl.R @ lvl.A @ lvl.P).toarray())
    assert abs(lam[0]) < 1e-12 * lam[-1]


def test_bad_inputs():
    with pytest.raises(ValueError):
        smoothed_aggregation(sp.csr_matrix(np.ones((3, 4))))
    with pytest.raises(ValueError):
        smoothed_aggregation(poisson_2d(4), block_size=3)


def test_small_matrix_direct():
    A = poisson_2d(4)  # 16 dofs: below coarse_size, no levels
    ml = smoothed_aggregation(A)
    b = np.ones(16)
    x = ml.vcycle(b)
    np.testing.assert_allclose(A @ x, b, atol=1e-6)


def test_chebyshev_smoother_converges():
    A = poisson_2d(24)
    ml = smoothed_aggregation(A, smoother="chebyshev", presmooth=2, postsmooth=2)
    b = np.ones(A.shape[0])
    res = cg(lambda v: A @ v, b, M=ml.vcycle, tol=1e-8, maxiter=120)
    assert res.converged
    assert res.iterations < 40


def test_chebyshev_vs_sgs_both_mesh_independent():
    for smoother in ("chebyshev", "sgs"):
        counts = []
        for n in (12, 24):
            A = poisson_2d(n)
            ml = smoothed_aggregation(A, smoother=smoother)
            b = np.ones(A.shape[0])
            res = cg(lambda v: A @ v, b, M=ml.vcycle, tol=1e-8, maxiter=200)
            assert res.converged, smoother
            counts.append(res.iterations)
        assert counts[1] <= counts[0] + 10, (smoother, counts)


def test_unknown_smoother_rejected():
    with pytest.raises(ValueError):
        smoothed_aggregation(poisson_2d(8), smoother="ilu")
