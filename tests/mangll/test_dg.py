"""Tests for the dG operator: trace alignment (incl. rotated inter-tree
and hanging faces), conservation, exactness, convergence, parallelism."""

import numpy as np
import pytest

from repro.mangll.dgops import BOUNDARY, COARSE, CONFORMING, FINE, DGSpace
from repro.mangll.geometry import BrickGeometry, MultilinearGeometry, ShellGeometry
from repro.mangll.mesh import build_mesh, face_node_indices
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_integrate, lsrk45_step
from repro.p4est.balance import balance
from repro.p4est.builders import (
    brick_2d,
    brick_3d,
    rotcubes,
    shell,
    unit_cube,
    unit_square,
)
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import Machine, RunConfig, SerialComm
from tests.parallel.helpers import run as spmd


def make_space(conn, comm, level, degree, geometry=None, refine_mask_fn=None):
    forest = Forest.new(conn, comm, level=level)
    if refine_mask_fn is not None:
        forest.refine(mask=refine_mask_fn(forest))
        balance(forest)
        forest.partition()
    ghost = build_ghost(forest)
    geo = geometry or MultilinearGeometry(conn)
    mesh = build_mesh(forest, geo, degree, ghost)
    return forest, ghost, mesh, DGSpace(forest, ghost, mesh, degree)


def make_solver(forest, ghost, mesh, model, comm):
    """Bind the dG operator through the op frontend (the supported API)."""
    return DGOperator(model, mesh.degree).bind(MeshContext(forest, ghost, mesh, comm))


def nodal_field(mesh, fn):
    """Sample fn(x) at all (local+ghost) element nodes."""
    return fn(mesh.coords)


def max_face_jump(space, comm, q_all):
    """Max |qm - aligned(qp)| over all conforming/fine mortars.

    For a globally continuous function this must vanish to roundoff on
    conforming faces (exact node matching through arbitrary rotations)
    and to interpolation accuracy on hanging faces.
    """
    worst = 0.0
    for batch in space.batches:
        if batch.kind == BOUNDARY:
            continue
        fidx = face_node_indices(space.dim, space.nq, batch.fminus)
        if batch.kind in (CONFORMING, FINE):
            qm = q_all[batch.eminus][:, fidx]
            pidx = face_node_indices(space.dim, space.nq, batch.fplus)
            qp = np.einsum("qs,es->eq", batch.transfer, q_all[batch.eplus][:, pidx])
            worst = max(worst, float(np.abs(qm - qp).max()))
        else:
            pidx = face_node_indices(space.dim, space.nq, batch.fplus)
            qm = np.einsum("qs,es->eq", batch.transfer, q_all[batch.eminus][:, fidx])
            qp = q_all[batch.eplus][:, pidx]
            worst = max(worst, float(np.abs(qm - qp).max()))
    return worst


@pytest.mark.parametrize(
    "builder,geo,dimfn",
    [
        (unit_square, None, 2),
        (
            lambda: brick_2d(2, 2, periodic_x=True, periodic_y=True),
            BrickGeometry(2, 2),
            2,
        ),
        (unit_cube, None, 3),
        (
            lambda: brick_3d(2, 1, 1, periodic_x=True),
            BrickGeometry(2, 1, 1, dim=3),
            3,
        ),
    ],
)
@pytest.mark.parametrize("degree", [1, 3])
def test_conforming_trace_continuity(builder, geo, dimfn, degree):
    conn = builder()
    forest, ghost, mesh, space = make_space(conn, SerialComm(), 2, degree, geometry=geo)

    def f(x):
        # Periodic with period 2 along every axis, so wrap faces match.
        out = np.sin(np.pi * x[..., 0]) + 0.5 * np.cos(np.pi * x[..., 1])
        if dimfn == 3:
            out = out + 0.25 * np.sin(np.pi * x[..., 2])
        return out

    q = nodal_field(mesh, f)
    jump = max_face_jump(space, SerialComm(), q)
    assert jump < 1e-12


@pytest.mark.parametrize("builder,geo", [(rotcubes, None), (shell, ShellGeometry())])
def test_rotated_intertree_trace_continuity(builder, geo):
    """The decisive transform test: a globally smooth function sampled at
    nodes must have identical traces across rotated tree gluings."""
    conn = builder()
    forest, ghost, mesh, space = make_space(conn, SerialComm(), 1, 3, geometry=geo)
    q = nodal_field(mesh, lambda x: np.sin(x[..., 0] + 0.7 * x[..., 1]) + x[..., 2] ** 2)
    jump = max_face_jump(space, SerialComm(), q)
    assert jump < 1e-11


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_hanging_face_trace_exact_for_polynomials(degree):
    """On 2:1 faces the interpolation is exact for polynomials of the
    face degree, so jumps vanish for such fields."""
    conn = unit_square()

    def refine_fn(forest):
        return (forest.local.x == 0) & (forest.local.y == 0)

    forest, ghost, mesh, space = make_space(
        conn, SerialComm(), 2, degree, refine_mask_fn=refine_fn
    )
    kinds = {b.kind for b in space.batches}
    assert FINE in kinds and COARSE in kinds

    def f(x):
        return (x[..., 0] ** degree) + 2 * x[..., 1] - 0.3 * x[..., 0] * x[..., 1]

    q = nodal_field(mesh, f)
    jump = max_face_jump(space, SerialComm(), q)
    assert jump < 1e-11


def test_hanging_face_3d_trace():
    conn = unit_cube()

    def refine_fn(forest):
        return (forest.local.x == 0) & (forest.local.y == 0) & (forest.local.z == 0)

    forest, ghost, mesh, space = make_space(
        conn, SerialComm(), 1, 2, refine_mask_fn=refine_fn
    )
    q = nodal_field(
        mesh, lambda x: x[..., 0] * x[..., 1] + x[..., 2] ** 2 - 0.5 * x[..., 0]
    )
    jump = max_face_jump(space, SerialComm(), q)
    assert jump < 1e-11


@pytest.mark.parametrize("size", [1, 2, 4])
def test_rhs_rank_invariant(size):
    """The dG RHS of a deterministic field is identical on any P."""
    conn = brick_2d(2, 1)

    def refine_fn(forest):
        return forest.local.tree == 0

    def prog(comm):
        forest, ghost, mesh, space = make_space(
            conn, comm, 2, 2, refine_mask_fn=refine_fn
        )
        model = AdvectionModel(2, [1.0, 0.5])
        solver = make_solver(forest, ghost, mesh, model, comm)
        q = np.sin(mesh.coords[: mesh.nelem_local, :, 0]) * np.cos(
            mesh.coords[: mesh.nelem_local, :, 1]
        )
        r = solver.rhs(q)
        # Tag each residual entry by its element key for global comparison.
        keys = forest.local.keys()
        pairs = sorted(
            (int(keys[e]), tuple(np.round(r[e], 10))) for e in range(len(r))
        )
        gathered = comm.allgather(pairs)
        flat = sorted(p for chunk in gathered for p in chunk)
        return flat

    ref = spmd(1, prog)[0]
    for size_out in spmd(size, prog):
        assert size_out == ref


def test_advection_exact_for_linear_field():
    """d/dt of a linear field under constant advection is exactly
    -v.grad C on elements away from the domain boundary."""
    conn = unit_square()
    forest, ghost, mesh, space = make_space(conn, SerialComm(), 2, 2)
    v = np.array([0.7, -0.3])
    model = AdvectionModel(2, v)
    solver = make_solver(forest, ghost, mesh, model, SerialComm())
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = 2.0 * x[..., 0] + 3.0 * x[..., 1] + 1.0
    r = solver.rhs(q)
    expect = -(v[0] * 2.0 + v[1] * 3.0)
    # Interior elements only: boundary faces use the (wrong-for-linear)
    # prescribed inflow state.
    L = forest.D.root_len
    h = forest.local.lens()
    interior = (
        (forest.local.x > 0)
        & (forest.local.y > 0)
        & (forest.local.x + h < L)
        & (forest.local.y + h < L)
    )
    assert interior.any()
    np.testing.assert_allclose(r[interior], expect, atol=1e-10)


def test_advection_conservation_periodic():
    conn = brick_2d(2, 2, periodic_x=True, periodic_y=True)
    forest, ghost, mesh, space = make_space(
        conn, SerialComm(), 2, 3, geometry=BrickGeometry(2, 2)
    )
    model = AdvectionModel(2, [1.0, 0.37])
    solver = make_solver(forest, ghost, mesh, model, SerialComm())
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    rng = np.random.default_rng(0)
    q = np.exp(-20 * ((x[..., 0] - 1) ** 2 + (x[..., 1] - 1) ** 2))
    mass0 = solver.integrate_quantity(q)[0]
    dt = solver.stable_dt(q, cfl=0.5)
    for _ in range(20):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
    mass1 = solver.integrate_quantity(q)[0]
    np.testing.assert_allclose(mass1, mass0, rtol=1e-12)


def test_advection_conservation_hanging():
    """Mass is conserved across 2:1 mortars (conservative coupling)."""
    conn = brick_2d(2, 2, periodic_x=True, periodic_y=True)

    def refine_fn(forest):
        return forest.local.tree == 0

    forest, ghost, mesh, space = make_space(
        conn, SerialComm(), 2, 2, geometry=BrickGeometry(2, 2), refine_mask_fn=refine_fn
    )
    model = AdvectionModel(2, [0.9, 0.41])
    solver = make_solver(forest, ghost, mesh, model, SerialComm())
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = np.exp(-15 * ((x[..., 0] - 1) ** 2 + (x[..., 1] - 0.8) ** 2))
    mass0 = solver.integrate_quantity(q)[0]
    dt = solver.stable_dt(q, cfl=0.4)
    for _ in range(15):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
    np.testing.assert_allclose(solver.integrate_quantity(q)[0], mass0, rtol=1e-11)


def gaussian_advect_error(level, degree, steps_factor=1.0):
    conn = brick_2d(2, 2, periodic_x=True, periodic_y=True)
    forest, ghost, mesh, space = make_space(
        conn, SerialComm(), level, degree, geometry=BrickGeometry(2, 2)
    )
    v = np.array([1.0, 0.0])
    model = AdvectionModel(2, v)
    solver = make_solver(forest, ghost, mesh, model, SerialComm())
    nl = mesh.nelem_local
    x = mesh.coords[:nl]

    def exact(xx, t):
        # Periodic domain [0,2]^2.
        xs = np.mod(xx[..., 0] - v[0] * t, 2.0)
        return np.exp(-30 * ((xs - 1.0) ** 2 + (xx[..., 1] - 1.0) ** 2))

    q = exact(x, 0.0)
    T = 0.25
    dt = solver.stable_dt(q, cfl=0.25)
    q = lsrk45_integrate(q, 0.0, T, dt, lambda u, t: solver.rhs(u, t))
    err = q - exact(x, T)
    wdet = mesh.detj[:nl] * mesh.weights[None, :]
    return float(np.sqrt((wdet * err**2).sum()))


def test_advection_convergence_with_level():
    e1 = gaussian_advect_error(2, 3)
    e2 = gaussian_advect_error(3, 3)
    rate = np.log2(e1 / e2)
    assert rate > 3.0, (e1, e2, rate)  # ~N+1 for smooth data


def test_advection_on_shell_conserves():
    """Solid-body rotation on the spherical shell conserves tracer mass."""
    conn = shell()
    geo = ShellGeometry()
    forest, ghost, mesh, space = make_space(conn, SerialComm(), 1, 3, geometry=geo)

    def rotation(x):
        # Rigid rotation about z: divergence-free, tangent to spheres.
        v = np.zeros_like(x)
        v[..., 0] = -x[..., 1]
        v[..., 1] = x[..., 0]
        return v

    model = AdvectionModel(3, rotation)
    solver = make_solver(forest, ghost, mesh, model, SerialComm())
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = np.exp(-10 * ((x[..., 0] - 0.8) ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2))
    m0 = solver.integrate_quantity(q)[0]
    dt = solver.stable_dt(q, cfl=0.3)
    for _ in range(10):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
    m1 = solver.integrate_quantity(q)[0]
    # Rotation is tangential at the shell walls, so no in/outflow: the
    # boundary upwind flux sees v.n ~ 0 (to discrete-geometry accuracy).
    np.testing.assert_allclose(m1, m0, rtol=5e-4)


@pytest.mark.parametrize("size", [2, 3])
def test_parallel_advection_matches_serial(size):
    conn = brick_2d(2, 1)

    def run(comm):
        forest, ghost, mesh, space = make_space(conn, comm, 2, 2)
        model = AdvectionModel(2, [1.0, 0.25], inflow=0.0)
        solver = make_solver(forest, ghost, mesh, model, comm)
        nl = mesh.nelem_local
        x = mesh.coords[:nl]
        q = np.exp(-25 * ((x[..., 0] - 0.7) ** 2 + (x[..., 1] - 0.5) ** 2))
        dt = solver.stable_dt(q, cfl=0.3)
        for _ in range(10):
            q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
        total = solver.integrate_quantity(q)[0]
        l2 = solver.integrate_quantity(q**2)[0]
        return round(float(total), 12), round(float(l2), 12)

    ref = spmd(1, run)[0]
    out = spmd(size, run)
    assert out == [ref] * size


@pytest.mark.parametrize("size", [5, 6])
def test_rank_without_elements_stays_in_the_ghost_exchange(size):
    """Four elements on more ranks than elements: the empty ranks have no
    ghosts, yet must enter the collective ghost exchange of every ``rhs``
    — skipping it shifted their collective sequence against the others'
    (``HangError`` / a dict reaching ``stable_dt``'s allreduce)."""
    conn = unit_square()

    def run(comm):
        forest, ghost, mesh, _ = make_space(conn, comm, 1, 2)
        op = make_solver(forest, ghost, mesh, AdvectionModel(2, [1.0, 0.5]), comm)
        q = np.sin(mesh.coords[: mesh.nelem_local, :, 0])
        r = op.rhs(q, 0.0)
        assert r.shape == q.shape
        return mesh.nelem_local, op.stable_dt(q, cfl=0.3)

    out = Machine(RunConfig(size=size, backend="thread")).run(run).values
    assert sorted(n for n, _ in out) == [0] * (size - 4) + [1] * 4
    assert len({dt for _, dt in out}) == 1
