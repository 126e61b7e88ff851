"""Tests for curvilinear mesh metrics."""

import numpy as np
import pytest

from repro.mangll.geometry import (
    BrickGeometry,
    MoebiusGeometry,
    MultilinearGeometry,
    ShellGeometry,
)
from repro.mangll.mesh import Mesh, build_mesh, face_node_indices, reference_nodes
from repro.p4est.balance import balance
from repro.p4est.builders import (
    brick_2d,
    rotcubes,
    shell,
    two_trees_2d,
    unit_cube,
    unit_square,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


def test_reference_nodes_ordering():
    pts2 = reference_nodes(2, 1)
    np.testing.assert_allclose(pts2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    pts3 = reference_nodes(3, 1)
    assert pts3.shape == (8, 3)
    np.testing.assert_allclose(pts3[1], [1, 0, 0])
    np.testing.assert_allclose(pts3[4], [0, 0, 1])


def test_face_node_indices_2d():
    nq = 3
    # Face 0 (x=0): nodes with kx = 0, ordered by ky.
    np.testing.assert_array_equal(face_node_indices(2, nq, 0), [0, 3, 6])
    np.testing.assert_array_equal(face_node_indices(2, nq, 1), [2, 5, 8])
    np.testing.assert_array_equal(face_node_indices(2, nq, 2), [0, 1, 2])
    np.testing.assert_array_equal(face_node_indices(2, nq, 3), [6, 7, 8])


def test_face_node_indices_3d():
    nq = 2
    # Face 4 (z=0): the first four nodes, x fastest.
    np.testing.assert_array_equal(face_node_indices(3, nq, 4), [0, 1, 2, 3])
    np.testing.assert_array_equal(face_node_indices(3, nq, 5), [4, 5, 6, 7])
    np.testing.assert_array_equal(face_node_indices(3, nq, 0), [0, 2, 4, 6])


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_unit_square_metrics(degree):
    forest = Forest.new(unit_square(), SerialComm(), level=2)
    mesh = build_mesh(forest, MultilinearGeometry(unit_square()), degree)
    np.testing.assert_allclose(mesh.element_volumes().sum(), 1.0, atol=1e-12)
    # Affine elements: constant Jacobian h/2 per axis.
    np.testing.assert_allclose(mesh.detj, (1 / 8) ** 2, atol=1e-12)
    for f in range(4):
        n, sj = mesh.face_normals(f)
        expect = np.zeros(2)
        expect[f // 2] = -1 if f % 2 == 0 else 1
        np.testing.assert_allclose(n, np.broadcast_to(expect, n.shape), atol=1e-12)
        np.testing.assert_allclose(sj, 1 / 8, atol=1e-12)


def test_unit_cube_face_areas():
    forest = Forest.new(unit_cube(), SerialComm(), level=1)
    mesh = build_mesh(forest, MultilinearGeometry(unit_cube()), 2)
    np.testing.assert_allclose(mesh.element_volumes().sum(), 1.0, atol=1e-12)
    wf = mesh.face_weights()
    for f in range(6):
        _, sj = mesh.face_normals(f)
        # Total surface quadrature over one face of each octant: area 1/4.
        areas = (sj * wf[None, :]).sum(axis=1)
        np.testing.assert_allclose(areas, 0.25, atol=1e-12)


def test_shell_volume_and_normals():
    forest = Forest.new(shell(), SerialComm(), level=1)
    mesh = build_mesh(forest, ShellGeometry(0.55, 1.0), 4)
    exact = 4 / 3 * np.pi * (1 - 0.55**3)
    np.testing.assert_allclose(mesh.element_volumes().sum(), exact, rtol=1e-8)
    # Radial faces: outward normal aligns with +-r_hat up to the
    # truncation of the discrete (degree-4 interpolated) metric.
    n5, sj5 = mesh.face_normals(5)  # outer sphere
    fidx = face_node_indices(3, 5, 5)
    for e in range(0, mesh.nelem_total, 7):
        x = mesh.coords[e][fidx]
        rhat = x / np.linalg.norm(x, axis=1, keepdims=True)
        np.testing.assert_allclose(n5[e], rhat, atol=2e-3)
    # Outer surface area = 4 pi.
    wf = mesh.face_weights()
    outer = 0.0
    for e in range(mesh.nelem_total):
        # outer sphere faces belong to every tree's face 5 at z top level:
        o = mesh.octants.octant(e)
        if o.z + o.len(3) == forest.D.root_len:
            outer += (sj5[e] * wf).sum()
    np.testing.assert_allclose(outer, 4 * np.pi, rtol=1e-8)


def test_mesh_includes_ghosts():
    conn = brick_2d(2, 1)

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        ghost = build_ghost(forest)
        mesh = build_mesh(forest, MultilinearGeometry(conn), 1, ghost)
        assert mesh.nelem_ghost == len(ghost)
        assert mesh.nelem_total == forest.local_count + len(ghost)
        # Total volume over local elements only sums to the domain area 2.
        vols = mesh.element_volumes()[: mesh.nelem_local]
        from repro.parallel.ops import SUM

        total = comm.allreduce(float(vols.sum()), SUM)
        np.testing.assert_allclose(total, 2.0, atol=1e-12)
        return True

    assert all(spmd(3, prog))


def test_inverted_element_detected():
    conn = unit_square()
    bad = MultilinearGeometry(conn)
    # Flip the geometry to invert elements.
    bad.conn.vertices = bad.conn.vertices.copy()
    bad.conn.vertices[:, 0] *= -1
    forest = Forest.new(conn, SerialComm(), level=0)
    with pytest.raises(ValueError, match="Jacobian"):
        build_mesh(forest, bad, 1)


def test_build_mesh_rejects_degree_zero():
    forest = Forest.new(unit_square(), SerialComm(), level=0)
    with pytest.raises(ValueError):
        build_mesh(forest, MultilinearGeometry(unit_square()), 0)


def test_moebius_geometry_maps_consistently():
    geo = MoebiusGeometry()
    # The ring closes: tree 4 at u_x=1 equals tree 0 at u_x=0 with the
    # transverse direction flipped.
    u_end = np.array([[1.0, 0.3]])
    u_start = np.array([[0.0, 0.7]])
    np.testing.assert_allclose(
        geo.map_points(4, u_end), geo.map_points(0, u_start), atol=1e-12
    )


# --- build_mesh(previous=...) ------------------------------------------------

MESH_ARRAYS = ("coords", "jinv", "detj", "weights")

# One per Geometry subclass, on a connectivity whose elements it maps with a
# positive planar Jacobian.  The Moebius band's (x, y) projection is
# right-handed only on its first trees and with the transverse axis flipped
# (negative width), so it runs on the first two trees of a mirrored band.
GEOMETRIES = {
    "multilinear2d": (unit_square, MultilinearGeometry, 2),
    "multilinear3d": (rotcubes, MultilinearGeometry, 1),
    "shell": (shell, lambda conn: ShellGeometry(), 1),
    "moebius": (two_trees_2d, lambda conn: MoebiusGeometry(width=-0.4), 2),
    "brick": (
        lambda: brick_2d(3, 2, periodic_x=True),
        lambda conn: BrickGeometry(3, 2),
        1,
    ),
}


def _lattice_hash(octs):
    s = (octs.D.maxlevel - octs.level).astype(np.int64)
    return octs.tree * 7 + (octs.x >> s) * 3 + (octs.y >> s) * 5 + (octs.z >> s)


def _assert_same_mesh(a: Mesh, b: Mesh):
    assert a.octants == b.octants
    assert (a.nelem_local, a.nelem_ghost) == (b.nelem_local, b.nelem_ghost)
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _rows(octs):
    return set(zip(*(c.tolist() for c in (octs.tree, octs.x, octs.y, octs.z, octs.level))))


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_previous_mesh_changes_no_bit(name):
    """``previous`` is data, not a switch: after a refine + coarsen +
    repartition the mesh built from carried-over rows equals the one
    evaluated from scratch, and the cycle did exercise kept rows, fresh
    rows and rows that were another rank's ghost."""
    builder, make_geometry, level = GEOMETRIES[name]
    conn = builder()
    geometry = make_geometry(conn)

    def prog(comm):
        forest = Forest.new(conn, comm, level=level)
        forest.refine(mask=_lattice_hash(forest.local) % 3 == 0)
        balance(forest)
        forest.partition()
        ghost = build_ghost(forest)
        old = build_mesh(forest, geometry, 2, ghost)
        _assert_same_mesh(build_mesh(forest, geometry, 2, ghost, previous=old), old)

        forest.coarsen(mask=_lattice_hash(forest.local.parents()) % 2 == 0)
        forest.refine(mask=_lattice_hash(forest.local) % 4 == 1)
        balance(forest)
        forest.partition(weights=1.0 + forest.local.level.astype(np.float64))
        ghost = build_ghost(forest)
        fresh = build_mesh(forest, geometry, 2, ghost)
        _assert_same_mesh(build_mesh(forest, geometry, 2, ghost, previous=old), fresh)

        was_local = _rows(old.octants[np.arange(old.nelem_local)])
        was_ghost = _rows(old.octants[np.arange(old.nelem_local, old.nelem_total)])
        now = _rows(fresh.octants)
        return (
            len(now & was_local),
            len(_rows(forest.local) & was_ghost),
            len(now - was_local - was_ghost),
        )

    kept, from_ghost, evaluated = np.sum(spmd(3, prog), axis=0)
    assert kept > 0 and from_ghost > 0 and evaluated > 0


@pytest.mark.parametrize("size", [1, 3])
def test_previous_mesh_through_advection_adapts(size):
    from repro.apps.advection.driver import AdvectionConfig, AdvectionRun

    def prog(comm):
        app = AdvectionRun(comm, AdvectionConfig(degree=2, max_level=2, adapt_every=2))
        changed = 0
        for _ in range(3):
            app.run(2)  # two steps, then adapt() rebuilds from the outgoing mesh
            plain = build_mesh(app.forest, app.geometry, 2, app.ghost)
            _assert_same_mesh(app.mesh, plain)
            changed += app.last_adapt.refined + app.last_adapt.coarsened
        return changed

    assert sum(spmd(size, prog)) > 0


def test_previous_mesh_must_match():
    conn = unit_square()
    geometry = MultilinearGeometry(conn)
    forest = Forest.new(conn, SerialComm(), level=1)
    old = build_mesh(forest, geometry, 2)
    assert old.geometry is geometry
    with pytest.raises(ValueError, match="previous"):
        build_mesh(forest, geometry, 3, previous=old)
    with pytest.raises(ValueError, match="previous"):
        build_mesh(forest, MultilinearGeometry(conn), 2, previous=old)
    cube = Forest.new(unit_cube(), SerialComm(), level=1)
    with pytest.raises(ValueError, match="previous"):
        build_mesh(cube, geometry, 2, previous=old)
