"""Tests for continuous Galerkin assembly: patch tests, Poisson
convergence on hanging meshes, and distributed solves."""

import numpy as np
import pytest

from repro.mangll.cgops import (
    CGSpace,
    apply_dirichlet,
    edge_node_indices,
    gradient_matrices,
    hanging_operator,
)
from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd
from repro.solvers.krylov import cg as cg_solve


def make_cg(conn, comm, level, degree, refine_fn=None):
    forest = Forest.new(conn, comm, level=level)
    if refine_fn is not None:
        forest.refine(mask=refine_fn(forest))
        balance(forest)
        forest.partition()
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), degree, ghost)
    return forest, CGSpace(mesh, lnodes(forest, ghost, degree), comm)


def test_gradient_matrices_exact():
    G = gradient_matrices(2, 3)
    from repro.mangll.mesh import reference_nodes

    pts = 2 * reference_nodes(2, 2) - 1  # [-1,1]^2 nodes
    f = pts[:, 0] ** 2 * pts[:, 1]
    np.testing.assert_allclose(G[0] @ f, 2 * pts[:, 0] * pts[:, 1], atol=1e-12)
    np.testing.assert_allclose(G[1] @ f, pts[:, 0] ** 2, atol=1e-12)


def test_edge_node_indices():
    idx = edge_node_indices(2, 0)  # edge along x at y=z=0
    np.testing.assert_array_equal(idx, [0, 1])
    idx = edge_node_indices(2, 11)  # along z at x=y=1
    np.testing.assert_array_equal(idx, [3, 7])


def test_hanging_operator_identity_when_conforming():
    R = hanging_operator(2, 3, (-1, -1, -1, -1), ())
    np.testing.assert_array_equal(R, np.eye(9))


def test_hanging_operator_partition_of_unity():
    # Rows of R sum to one (interpolation reproduces constants).
    for pos in range(2):
        R = hanging_operator(2, 4, (pos, -1, -1, -1), ())
        np.testing.assert_allclose(R.sum(axis=1), 1.0, atol=1e-12)
    R3 = hanging_operator(3, 3, (-1, 2, -1, -1, -1, -1), tuple([-1] * 12))
    np.testing.assert_allclose(R3.sum(axis=1), 1.0, atol=1e-12)
    # Pure hanging edge in 3D.
    he = [-1] * 12
    he[3] = 1
    R4 = hanging_operator(3, 2, (-1,) * 6, tuple(he))
    np.testing.assert_allclose(R4.sum(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(R4, np.eye(8))


def test_mass_matrix_integrates_one():
    conn = unit_square()
    forest, cgs = make_cg(conn, SerialComm(), 2, 2)
    M = cgs.assemble_matrix(cgs.elem_mass())
    ones = np.ones(cgs.ln.num_local_nodes)
    np.testing.assert_allclose(ones @ (M @ ones), 1.0, atol=1e-12)


def test_stiffness_annihilates_constants_and_linears():
    conn = unit_square()

    def refine_fn(forest):
        half = forest.D.root_len // 2
        return (forest.local.x < half) & (forest.local.y < half)

    forest, cgs = make_cg(conn, SerialComm(), 2, 2, refine_fn)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    geo = MultilinearGeometry(conn)
    xy = cgs.node_coords(geo)
    ones = np.ones(len(xy))
    np.testing.assert_allclose(A @ ones, 0.0, atol=1e-9)
    # Linear field: A @ x has nonzero entries only at boundary rows
    # (interior rows integrate grad(phi).grad(x) = 0 by exactness); with
    # hanging nodes this is the essential patch test.
    lin = 2 * xy[:, 0] - 3 * xy[:, 1]
    r = A @ lin
    bnd = cgs.boundary_node_mask(conn)
    np.testing.assert_allclose(r[~bnd], 0.0, atol=1e-9)


def poisson_error(level, degree, refine_fn=None, comm=None):
    """Solve -lap u = f with u = sin(pi x) sin(pi y), Dirichlet 0."""
    conn = unit_square()
    comm = comm or SerialComm()
    forest, cgs = make_cg(conn, comm, level, degree, refine_fn)
    geo = MultilinearGeometry(conn)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    nl = cgs.mesh.nelem_local
    x = cgs.mesh.coords[:nl]
    f = 2 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    b = cgs.assemble_vector(cgs.elem_load(f))
    b = cgs.ln.scatter_reverse_add(comm, b)
    bnd = cgs.boundary_node_mask(conn)
    xy = cgs.node_coords(geo)
    exact = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
    # Zero Dirichlet: zero rows/cols, identity handled by the operator.
    A2, b2 = apply_dirichlet(A, b, bnd, np.zeros(len(b)))
    # Remove the local identity diagonal added by apply_dirichlet; the
    # constrained operator supplies it exactly once across ranks.
    if comm.size > 1:
        d = A2.diagonal()
        d[bnd] = 0.0
        A2.setdiag(d)
        mv = cgs.make_constrained_operator(A2, bnd)
        b2[bnd] = 0.0
    else:
        mv = lambda v: A2 @ v
    res = cg_solve(mv, b2, tol=1e-12, maxiter=3000, dot=cgs.dot)
    assert res.converged
    err = res.x - exact
    return np.sqrt(cgs.dot(err, err) / max(cgs.dot(exact, exact), 1e-300))


@pytest.mark.parametrize("degree", [1, 2])
def test_poisson_converges_uniform(degree):
    e1 = poisson_error(2, degree)
    e2 = poisson_error(3, degree)
    rate = np.log2(e1 / e2)
    # Nodal l2 error converges at ~h^(degree+1): rate ~2 and ~4.
    expect = degree + 1
    assert rate > expect - 0.35, (e1, e2, rate)


def test_poisson_hanging_mesh_accuracy():
    def refine_fn(forest):
        half = forest.D.root_len // 2
        return (forest.local.x < half) & (forest.local.y < half)

    e_adapt = poisson_error(3, 1, refine_fn)
    e_unif = poisson_error(3, 1)
    # The adapted mesh (extra resolution in one quadrant, hanging nodes
    # on the interfaces) must not be worse than ~the uniform error.
    assert e_adapt < 2.5 * e_unif


@pytest.mark.parametrize("size", [2, 3])
def test_poisson_parallel_matches_serial(size):
    def refine_fn(forest):
        return forest.local.x < forest.D.root_len // 2

    e_serial = poisson_error(3, 1, refine_fn)

    def prog(comm):
        return poisson_error(3, 1, refine_fn, comm)

    for e in spmd(size, prog):
        np.testing.assert_allclose(e, e_serial, rtol=1e-6)


def test_poisson_3d_hanging():
    conn = unit_cube()

    def refine_fn(forest):
        return (
            (forest.local.x == 0) & (forest.local.y == 0) & (forest.local.z == 0)
        )

    comm = SerialComm()
    forest, cgs = make_cg(conn, comm, 1, 2, refine_fn)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    geo = MultilinearGeometry(conn)
    xyz = cgs.node_coords(geo)
    # Patch test: linear solutions are exact on hanging 3D meshes.
    lin = xyz[:, 0] + 2 * xyz[:, 1] - xyz[:, 2]
    r = A @ lin
    bnd = cgs.boundary_node_mask(conn)
    np.testing.assert_allclose(r[~bnd], 0.0, atol=1e-9)


def test_apply_dirichlet_symmetric():
    conn = unit_square()
    forest, cgs = make_cg(conn, SerialComm(), 2, 1)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    b = np.ones(A.shape[0])
    bnd = cgs.boundary_node_mask(conn)
    vals = np.zeros_like(b)
    A2, b2 = apply_dirichlet(A, b, bnd, vals)
    # Still symmetric and solvable.
    diff = (A2 - A2.T).toarray()
    np.testing.assert_allclose(diff, 0.0, atol=1e-12)
    x = np.linalg.solve(A2.toarray(), b2)
    np.testing.assert_allclose(x[bnd], 0.0, atol=1e-12)
    assert x[~bnd].max() > 0


def _rotcubes_lin_residual(level):
    from repro.p4est.builders import rotcubes

    conn = rotcubes()
    comm = SerialComm()
    forest = Forest.new(conn, comm, level=level)
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), 1, ghost)
    ln = lnodes(forest, ghost, 1)
    cgs = CGSpace(mesh, ln, comm)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    xyz = cgs.node_coords(MultilinearGeometry(conn))
    lin = 0.7 * xyz[:, 0] - 1.3 * xyz[:, 1] + 0.4 * xyz[:, 2] + 2.0
    r = A @ lin
    bnd = cgs.boundary_node_mask(conn)
    ones = np.ones(len(xyz))
    # Constants annihilate exactly on any mesh (gradients vanish nodally).
    np.testing.assert_allclose(A @ ones, 0.0, atol=1e-9)
    # Symmetry survives the rotated-tree assembly.
    np.testing.assert_allclose((A - A.T).toarray(), 0.0, atol=1e-11)
    return float(np.abs(r[~bnd]).max())


def test_rotated_trees_consistency():
    """cG assembly across rotated inter-tree gluings (an edge shared by
    five trees): constants annihilate exactly; the linear-field residual
    is the *quadrature truncation of the non-affine wedge elements* (Q1
    with collocated LGL does not satisfy exact patch tests on distorted
    hexes) and must shrink under refinement — which also certifies that
    Nodes matched every shared dof through the rotations (a mismatched
    dof would leave an O(1) residual at any level)."""
    r1 = _rotcubes_lin_residual(1)
    r2 = _rotcubes_lin_residual(2)
    assert r2 < r1 / 1.8, (r1, r2)
    assert r1 < 0.5  # truncation-sized, not an O(1) topology error


def test_shell_mass_and_constants_degree3():
    """On the curved 24-tree shell at degree 3 the mass matrix integrates
    the shell volume to quadrature accuracy and constants annihilate."""
    from repro.p4est.builders import shell as shell_conn
    from repro.mangll.geometry import ShellGeometry

    conn = shell_conn()
    comm = SerialComm()
    forest = Forest.new(conn, comm, level=1)
    ghost = build_ghost(forest)
    geo = ShellGeometry(0.55, 1.0)
    mesh = build_mesh(forest, geo, 3, ghost)
    ln = lnodes(forest, ghost, 3)
    cgs = CGSpace(mesh, ln, comm)
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    ones = np.ones(ln.num_local_nodes)
    np.testing.assert_allclose(A @ ones, 0.0, atol=1e-8)
    M = cgs.assemble_matrix(cgs.elem_mass())
    vol = float(ones @ (M @ ones))
    exact = 4 / 3 * np.pi * (1 - 0.55**3)
    np.testing.assert_allclose(vol, exact, rtol=1e-4)
