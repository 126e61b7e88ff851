"""Tests for solution transfer under refine/coarsen/balance/partition."""

import numpy as np
import pytest

from repro.mangll.geometry import BrickGeometry, MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.quadrature import gauss_lobatto
from repro.mangll.transfer import (
    nested_interp_1d,
    nested_interp_matrix,
    transfer_nodal_fields,
)
from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


def test_nested_interp_1d_exactness():
    nq = 4
    xi, _ = gauss_lobatto(nq)
    f = lambda t: t**3 - t + 0.5
    for k in (1, 2):
        for off in range(2**k):
            M = nested_interp_1d(nq, k, off)
            s = 0.5**k
            lo = 2 * s * off - 1
            pts = lo + s * (xi + 1)
            np.testing.assert_allclose(M @ f(xi), f(pts), atol=1e-12)


def test_nested_interp_matrix_identity():
    M = nested_interp_matrix(2, 3, 0, (0, 0))
    # leveldiff 0 is the identity.
    np.testing.assert_allclose(M, np.eye(9), atol=1e-13)


def nodal(mesh, fn):
    return fn(mesh.coords[: mesh.nelem_local])


@pytest.mark.parametrize("dim,conn_fn", [(2, unit_square), (3, unit_cube)])
@pytest.mark.parametrize("degree", [1, 3])
def test_refine_transfer_exact_for_polynomials(dim, conn_fn, degree):
    conn = conn_fn()
    geo = MultilinearGeometry(conn)
    forest = Forest.new(conn, SerialComm(), level=1)
    mesh0 = build_mesh(forest, geo, degree)

    def f(x):
        out = x[..., 0] ** degree + 2 * x[..., 1]
        if dim == 3:
            out = out - x[..., 2] * x[..., 0]
        return out

    q0 = nodal(mesh0, f)
    old = forest.local.copy()
    forest.refine(mask=np.ones(forest.local_count, dtype=bool))
    q1 = transfer_nodal_fields(old, q0, forest.local, degree)
    mesh1 = build_mesh(forest, geo, degree)
    np.testing.assert_allclose(q1, nodal(mesh1, f), atol=1e-11)


@pytest.mark.parametrize("degree", [1, 2])
def test_coarsen_transfer_preserves_mass_and_polys(degree):
    conn = unit_square()
    geo = MultilinearGeometry(conn)
    forest = Forest.new(conn, SerialComm(), level=3)
    mesh0 = build_mesh(forest, geo, degree)
    x = mesh0.coords[: mesh0.nelem_local]
    rng = np.random.default_rng(1)
    q0 = np.sin(3 * x[..., 0]) * x[..., 1] + rng.normal(0, 0.1, x.shape[:-1])
    # Reference mass (affine mesh: detJ constant per element).
    w0 = mesh0.detj[: mesh0.nelem_local] * mesh0.weights[None, :]
    mass0 = (w0 * q0).sum()

    old = forest.local.copy()
    forest.coarsen(mask=np.ones(forest.local_count, dtype=bool))
    q1 = transfer_nodal_fields(old, q0, forest.local, degree)
    mesh1 = build_mesh(forest, geo, degree)
    w1 = mesh1.detj[: mesh1.nelem_local] * mesh1.weights[None, :]
    np.testing.assert_allclose((w1 * q1).sum(), mass0, rtol=1e-12)

    # Polynomials of the element degree survive coarsening exactly.
    p0 = nodal(mesh0, lambda xx: xx[..., 0] ** degree + xx[..., 1])
    p1 = transfer_nodal_fields(old, p0, forest.local, degree)
    np.testing.assert_allclose(p1, nodal(mesh1, lambda xx: xx[..., 0] ** degree + xx[..., 1]), atol=1e-11)


def test_mixed_adapt_transfer():
    """Simultaneous refine+coarsen in one adapt pass transfers cleanly."""
    conn = brick_2d(2, 1)
    geo = MultilinearGeometry(conn)
    forest = Forest.new(conn, SerialComm(), level=2)
    mesh0 = build_mesh(forest, geo, 2)
    q0 = nodal(mesh0, lambda x: x[..., 0] * x[..., 1] + 1.0)
    old = forest.local.copy()
    # Coarsen tree 1 entirely, refine tree 0 entirely.
    forest.refine(mask=forest.local.tree == 0)
    forest.coarsen(mask=forest.local.tree == 1)
    q1 = transfer_nodal_fields(old, q0, forest.local, 2)
    mesh1 = build_mesh(forest, geo, 2)
    np.testing.assert_allclose(q1, nodal(mesh1, lambda x: x[..., 0] * x[..., 1] + 1.0), atol=1e-11)


def test_transfer_vector_fields():
    conn = unit_square()
    forest = Forest.new(conn, SerialComm(), level=2)
    geo = MultilinearGeometry(conn)
    mesh0 = build_mesh(forest, geo, 1)
    x = mesh0.coords[: mesh0.nelem_local]
    q0 = np.stack([x[..., 0], x[..., 1], x[..., 0] + x[..., 1]], axis=-1)
    old = forest.local.copy()
    forest.refine(mask=np.ones(forest.local_count, dtype=bool))
    q1 = transfer_nodal_fields(old, q0, forest.local, 1)
    assert q1.shape == (forest.local_count, 4, 3)
    mesh1 = build_mesh(forest, geo, 1)
    x1 = mesh1.coords[: mesh1.nelem_local]
    np.testing.assert_allclose(q1[..., 2], x1[..., 0] + x1[..., 1], atol=1e-12)


@pytest.mark.parametrize("dim,conn_fn", [(2, unit_square), (3, unit_cube)])
def test_field_stack_transfers_like_its_fields(dim, conn_fn):
    """A squeezed ``(n, npts)`` field keeps its shape, and each field of an
    ``(n, npts, k)`` stack transfers like that field alone, coarsening and
    refining.  Bitwise for ``k = 1``; for ``k > 1`` the batched products
    (matrix-matrix instead of matrix-vector) round differently, so to a
    few ulps."""
    degree, npts = 3, 4**dim
    forest = Forest.new(conn_fn(), SerialComm(), level=1)
    forest.refine(mask=np.random.default_rng(5).random(forest.local_count) < 0.4)
    balance(forest)
    old = forest.local.copy()
    coarse = Forest.new(conn_fn(), SerialComm(), level=1).local
    forest.refine(mask=np.ones(forest.local_count, dtype=bool))
    rng = np.random.default_rng(11)
    for new in (coarse, forest.local):
        q1 = rng.standard_normal((len(old), npts))
        one = transfer_nodal_fields(old, q1, new, degree)
        assert one.shape == (len(new), npts)
        assert np.array_equal(one, transfer_nodal_fields(old, q1[..., None], new, degree)[..., 0])
        for k in (2, 3):
            q = rng.standard_normal((len(old), npts, k))
            got = transfer_nodal_fields(old, q, new, degree)
            assert got.shape == (len(new), npts, k)
            for f in range(k):
                want = transfer_nodal_fields(old, q[..., f], new, degree)
                np.testing.assert_allclose(got[..., f], want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_transfer_shape_validation():
    forest = Forest.new(unit_square(), SerialComm(), level=1)
    with pytest.raises(ValueError):
        transfer_nodal_fields(forest.local, np.zeros((3, 4)), forest.local, 1)


@pytest.mark.parametrize("size", [2, 3])
def test_partition_carries_fields(size):
    conn = brick_2d(2, 1)

    def prog(comm):
        forest = Forest.new(conn, comm, level=3)
        geo = MultilinearGeometry(conn)
        mesh = build_mesh(forest, geo, 1)
        q = mesh.coords[: mesh.nelem_local, :, 0] * 10.0  # x-coordinate tag
        keys0 = forest.local.keys().astype(np.float64)
        # Skew the load with weights, then partition carrying the field.
        w = np.where(forest.local.tree == 0, 5.0, 1.0)
        moved, (q2, keys2) = forest.partition(weights=w, carry=[q, keys0])
        # Carried keys must match the octants that arrived.
        np.testing.assert_array_equal(keys2, forest.local.keys().astype(np.float64))
        # Field rows still correspond to their octants: rebuild and check.
        mesh2 = build_mesh(forest, geo, 1)
        np.testing.assert_allclose(
            q2, mesh2.coords[: mesh2.nelem_local, :, 0] * 10.0, atol=1e-12
        )
        return moved

    out = spmd(size, prog)
    assert len(set(out)) == 1


def test_full_adapt_cycle_with_balance():
    """refine -> balance -> transfer -> coarsen -> transfer roundtrip
    keeps a degree-compatible field exact."""
    conn = unit_square()
    geo = MultilinearGeometry(conn)
    forest = Forest.new(conn, SerialComm(), level=2)
    mesh0 = build_mesh(forest, geo, 2)
    f = lambda x: x[..., 0] ** 2 - x[..., 0] * x[..., 1]
    q = nodal(mesh0, f)
    old = forest.local.copy()
    half = forest.D.root_len // 2
    forest.refine(
        mask=(forest.local.x + forest.local.lens() == half)
        & (forest.local.y + forest.local.lens() == half)
    )
    forest.refine(
        mask=(forest.local.x + forest.local.lens() == half)
        & (forest.local.y + forest.local.lens() == half)
    )
    balance(forest)
    q = transfer_nodal_fields(old, q, forest.local, 2)
    mesh1 = build_mesh(forest, geo, 2)
    np.testing.assert_allclose(q, nodal(mesh1, f), atol=1e-10)
