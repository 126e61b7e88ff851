"""Tests for CG / MINRES / GMRES against known systems and scipy."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.krylov import cg, gmres, minres


def poisson_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_cg_solves_spd():
    A = poisson_1d(100)
    rng = np.random.default_rng(0)
    xstar = rng.standard_normal(100)
    b = A @ xstar
    res = cg(lambda v: A @ v, b, tol=1e-12, maxiter=500)
    assert res.converged
    np.testing.assert_allclose(res.x, xstar, atol=1e-7)
    assert res.residuals[-1] < 1e-12
    assert res.residuals[0] > res.residuals[-1]


def test_cg_preconditioned_converges_faster():
    A = poisson_1d(200)
    b = np.ones(200)
    plain = cg(lambda v: A @ v, b, tol=1e-10, maxiter=1000)
    dinv = 1.0 / A.diagonal()
    # An (incomplete) Cholesky-like SSOR sweep as preconditioner.
    L = sp.tril(A).tocsr()
    import scipy.sparse.linalg as spla

    def ssor(r):
        y = spla.spsolve_triangular(L, r, lower=True)
        y *= A.diagonal()
        return spla.spsolve_triangular(L.T.tocsr(), y, lower=False)

    prec = cg(lambda v: A @ v, b, M=ssor, tol=1e-10, maxiter=1000)
    assert prec.converged and plain.converged
    assert prec.iterations < plain.iterations


def test_minres_solves_indefinite():
    rng = np.random.default_rng(1)
    n = 80
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.concatenate([np.linspace(1, 5, n // 2), np.linspace(-4, -0.5, n - n // 2)])
    A = Q @ np.diag(eig) @ Q.T
    xstar = rng.standard_normal(n)
    b = A @ xstar
    res = minres(lambda v: A @ v, b, tol=1e-11, maxiter=500)
    assert res.converged
    np.testing.assert_allclose(res.x, xstar, atol=1e-7)


def test_minres_preconditioned_saddle_point():
    """Stokes-like saddle system with SPD block preconditioner."""
    rng = np.random.default_rng(2)
    n, m = 60, 20
    K = poisson_1d(n).toarray() + np.eye(n)
    B = rng.standard_normal((m, n)) * 0.3
    Z = np.zeros((m, m))
    A = np.block([[K, B.T], [B, Z]])
    xstar = rng.standard_normal(n + m)
    b = A @ xstar
    Kinv = np.linalg.inv(K)
    Sinv = np.linalg.inv(B @ Kinv @ B.T)

    def M(v):
        out = np.empty_like(v)
        out[:n] = Kinv @ v[:n]
        out[n:] = Sinv @ v[n:]
        return out

    res = minres(lambda v: A @ v, b, M=M, tol=1e-10, maxiter=300)
    assert res.converged
    assert res.iterations < 60
    np.testing.assert_allclose(res.x, xstar, atol=1e-6)


def test_gmres_nonsymmetric():
    rng = np.random.default_rng(3)
    n = 70
    A = np.eye(n) * 4 + rng.standard_normal((n, n)) * 0.3
    xstar = rng.standard_normal(n)
    b = A @ xstar
    res = gmres(lambda v: A @ v, b, tol=1e-11, maxiter=300, restart=40)
    assert res.converged
    np.testing.assert_allclose(res.x, xstar, atol=1e-7)


def test_gmres_with_preconditioner():
    A = poisson_1d(150).toarray() + np.triu(np.ones((150, 150)), 1) * 0.001
    b = np.ones(150)
    dinv = 1.0 / np.diag(A)
    res = gmres(lambda v: A @ v, b, M=lambda r: dinv * r, tol=1e-9, maxiter=400, restart=60)
    assert res.converged
    np.testing.assert_allclose(A @ res.x, b, atol=1e-6)


def test_custom_dot_matches_default():
    """A distributed-style dot (weighted identity here) gives the same
    iterates as the plain dot when weights are one."""
    A = poisson_1d(50)
    b = np.ones(50)
    r1 = cg(lambda v: A @ v, b, tol=1e-10)
    r2 = cg(lambda v: A @ v, b, tol=1e-10, dot=lambda a, c: float((a * c).sum()))
    assert r1.iterations == r2.iterations
    np.testing.assert_allclose(r1.x, r2.x)


def test_zero_rhs():
    A = poisson_1d(10)
    res = cg(lambda v: A @ v, np.zeros(10), tol=1e-12)
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, 0)
    res2 = minres(lambda v: A @ v, np.zeros(10), tol=1e-12)
    assert res2.converged
    np.testing.assert_array_equal(res2.x, 0)


def test_initial_guess_used():
    A = poisson_1d(30)
    xstar = np.arange(30.0)
    b = A @ xstar
    res = cg(lambda v: A @ v, b, x0=xstar.copy(), tol=1e-12)
    assert res.iterations == 0


def test_minres_from_a_zero_guess_applies_the_preconditioner_once_more_than_iterations():
    A = poisson_1d(60)
    dinv = 1.0 / (A.diagonal() + np.linspace(0.0, 1.0, 60))
    b = np.sin(np.arange(60.0))
    calls = []

    def M(r):
        calls.append(1)
        return dinv * r

    res = minres(lambda v: A @ v, b, M=M, tol=1e-10, maxiter=200)
    assert res.converged and len(calls) == res.iterations + 1
    ref = minres(lambda v: A @ v, b, x0=np.zeros_like(b), M=M, tol=1e-10, maxiter=200)
    assert ref.iterations == res.iterations
    np.testing.assert_array_equal(res.x, ref.x)
