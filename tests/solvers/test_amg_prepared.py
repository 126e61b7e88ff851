"""Tests for what the AMG hierarchy prepares at setup: the pre-factored
Gauss-Seidel sweeps and the handling of rows that Dirichlet elimination
decoupled from the system."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.solvers import amg
from repro.solvers.amg import smoothed_aggregation
from tests.solvers.test_amg import elasticity_like, poisson_2d


def reference_sgs(A, x, b, sweeps):
    """Symmetric Gauss-Seidel written with SciPy's triangular solve."""
    lower, upper = sp.tril(A, format="csr"), sp.triu(A, format="csr")
    for _ in range(sweeps):
        x = x + spla.spsolve_triangular(lower, b - A @ x, lower=True)
        x = x + spla.spsolve_triangular(upper, b - A @ x, lower=False)
    return x


def eliminated(A, fixed):
    """``A`` with the masked dofs symmetrically eliminated (identity rows)."""
    free = sp.diags((~fixed).astype(float))
    out = sp.csr_matrix(free @ A @ free + sp.diags(fixed.astype(float)))
    out.eliminate_zeros()
    return out


def fixed_nodes(n, block_size):
    """Dof mask of the two outer rings of the n x n grid, interleaved as
    Dirichlet elimination leaves it (every free node keeps a neighbour)."""
    i = np.arange(n)
    ring = (i < 2) | (i >= n - 2)
    return np.repeat((ring[:, None] | ring[None, :]).ravel(), block_size)


CASES = [(poisson_2d(20), 20, 1), (elasticity_like(14), 14, 2)]


@pytest.mark.parametrize("A,n,block_size", CASES)
@pytest.mark.parametrize("sweeps", [1, 2])
def test_prefactored_sweep_matches_triangular_solves(A, n, block_size, sweeps):
    ml = smoothed_aggregation(A, block_size=block_size)
    lvl = ml.levels[0]
    rng = np.random.default_rng(0)
    b, x0 = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
    for start, ref_start in ((None, np.zeros_like(b)), (x0, x0)):
        got = ml._smooth(lvl, start, b, sweeps)
        want = reference_sgs(A, ref_start, b, sweeps)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("smoother", ["sgs", "chebyshev"])
def test_zero_guess_shortcut_is_exact(smoother):
    A = poisson_2d(16)
    ml = smoothed_aggregation(A, smoother=smoother)
    lvl = ml.levels[0]
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    np.testing.assert_array_equal(
        ml._smooth(lvl, None, b, 2), ml._smooth(lvl, np.zeros_like(b), b, 2)
    )


def test_no_sweeps_from_zero_guess_is_zero():
    A = poisson_2d(16)
    ml = smoothed_aggregation(A, presmooth=0)
    b = np.ones(A.shape[0])
    np.testing.assert_array_equal(ml._smooth(ml.levels[0], None, b, 0), 0.0)
    assert np.isfinite(ml.vcycle(b)).all()


def test_cycle_factors_and_builds_nothing(monkeypatch):
    A = poisson_2d(24)
    ml = smoothed_aggregation(A)
    assert all(isinstance(lvl.R, sp.csr_matrix) for lvl in ml.levels)

    def forbidden(*args, **kwargs):
        raise AssertionError("sparse construction inside a V-cycle")

    for name in ("splu", "spsolve_triangular"):
        monkeypatch.setattr(amg.spla, name, forbidden)
    for name in ("tril", "triu", "diags", "csr_matrix", "csc_matrix"):
        monkeypatch.setattr(amg.sp, name, forbidden)
    ml.vcycle(np.ones(A.shape[0]))


@pytest.mark.parametrize("A,n,block_size", CASES)
def test_eliminated_system_has_the_hierarchy_of_its_free_block(A, n, block_size):
    fixed = fixed_nodes(n, block_size)
    free = np.flatnonzero(~fixed)
    ml_full = smoothed_aggregation(eliminated(A, fixed), block_size=block_size)
    ml_free = smoothed_aggregation(A[free][:, free], block_size=block_size)
    assert ml_full.level_sizes == ml_free.level_sizes
    assert ml_full.level_sizes[0] == len(free)
    assert ml_full.level_sizes[-1] <= 60
    assert len(ml_full.levels) >= 1

    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x = ml_full.vcycle(b)
    want = ml_free.vcycle(b[free])
    assert np.linalg.norm(x[free] - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_array_equal(x[fixed], b[fixed])


def test_decoupled_rows_are_divided_by_their_diagonal():
    A = poisson_2d(12).tolil()
    A[5, :] = 0.0
    A[:, 5] = 0.0
    A[5, 5] = 4.0
    ml = smoothed_aggregation(A.tocsr())
    b = np.arange(1.0, A.shape[0] + 1)
    assert ml.vcycle(b)[5] == b[5] / 4.0
    assert ml.level_sizes[0] == A.shape[0] - 1


def test_block_node_with_one_coupled_row_stays_in_the_hierarchy():
    A = elasticity_like(10).tolil()
    A[0, :] = 0.0  # first component of node 0 only: the node still couples
    A[:, 0] = 0.0
    A[0, 0] = 1.0
    ml = smoothed_aggregation(A.tocsr(), block_size=2)
    assert ml.coupled is None


@pytest.mark.parametrize("A,n,block_size", CASES)
def test_vcycle_is_symmetric(A, n, block_size):
    """MINRES and CG need a symmetric preconditioner."""
    fixed = fixed_nodes(n, block_size)
    rng = np.random.default_rng(4)
    for M in (A, eliminated(A, fixed)):
        ml = smoothed_aggregation(M, block_size=block_size, smoother="sgs")
        x, y = rng.standard_normal((2, M.shape[0]))
        xMy, yMx = x @ ml.vcycle(y), y @ ml.vcycle(x)
        assert abs(xMy - yMx) <= 1e-12 * max(abs(xMy), abs(yMx))


def shuffled_rows(A, seed):
    """``A`` with each row's stored entries in a random order."""
    A = sp.csr_matrix(A)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    order = np.lexsort((np.random.default_rng(seed).random(A.nnz), rows))
    return sp.csr_matrix(
        (A.data[order], A.indices[order], A.indptr.copy()), shape=A.shape
    )


def workload_shell_velocity_block():
    """The eliminated velocity block of the ``stokes_picard`` shell's
    first Picard step."""
    from repro.apps.rhea.driver import RheaConfig, RheaRun
    from repro.parallel import SerialComm

    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=2))
    A, B, C, _ = run.stokes.assemble(run.viscosity_field(), run.body_force())
    A, _, _ = run.stokes.eliminate(A, B, C, run._fixed_velocity().reshape(-1))
    return A, run.dim


@pytest.mark.parametrize(
    "make",
    [lambda: (poisson_2d(20), 1), lambda: (elasticity_like(14), 2), workload_shell_velocity_block],
    ids=["poisson", "elasticity", "shell"],
)
def test_hierarchy_does_not_depend_on_the_stored_order_of_a_row(make):
    A, block_size = make()
    S = shuffled_rows(A, seed=5)
    assert not np.array_equal(S.indices, A.indices)
    ml, ml_shuffled = (smoothed_aggregation(M, block_size=block_size) for M in (A, S))
    assert ml.level_sizes == ml_shuffled.level_sizes
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    x, y = ml.vcycle(b), ml_shuffled.vcycle(b)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(x)


def test_all_rows_decoupled():
    d = np.linspace(1.0, 3.0, 90)
    ml = smoothed_aggregation(sp.diags(d), block_size=3)
    b = np.ones(90)
    np.testing.assert_array_equal(ml.vcycle(b), b / d)
    assert ml.levels == [] and ml.level_sizes == [0]
    assert ml.num_levels == 1 and ml.operator_complexity() == 1.0
    assert ml.cycles_applied == 1


def test_no_rows_decoupled():
    A = poisson_2d(16)
    ml = smoothed_aggregation(A)
    assert ml.coupled is None and ml.dinv is None
    assert ml.level_sizes[0] == A.shape[0]
    assert ml.level_sizes[-1] <= 60


def test_pure_neumann_vcycle_is_symmetric_on_mean_zero_vectors():
    """The coarsest inverse of a singular operator is restricted to the
    complement of its null mode, so the regularization's 1/eps does not
    amplify rounding in a mean-zero residual (1.7e-5 without)."""
    A = poisson_2d(12).tolil()
    A.setdiag(0.0)
    A.setdiag(-np.asarray(A.sum(axis=1)).ravel())  # rows sum to zero
    A = A.tocsr()
    ml = smoothed_aggregation(A)
    # One sparse level: the coarsest operator is Galerkin, so singular.
    assert len(ml.levels) == 1
    assert np.abs(ml.coarse_inv).max() < 1e3
    rng = np.random.default_rng(9)
    for _ in range(4):
        x, y = rng.standard_normal((2, A.shape[0]))
        x -= x.mean()
        y -= y.mean()
        xMy, yMx = x @ ml.vcycle(y), y @ ml.vcycle(x)
        assert abs(xMy - yMx) <= 1e-12 * max(abs(xMy), abs(yMx))
