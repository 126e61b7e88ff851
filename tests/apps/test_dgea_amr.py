"""Tests for dGea's dynamic wavefront-tracking AMR and 2D/coupled media."""

import numpy as np
import pytest

from repro.apps.dgea.driver import SeismicConfig, SeismicRun
from repro.apps.dgea.elastic import ElasticModel, homogeneous_material
from repro.mangll.geometry import MultilinearGeometry, element_centers
from repro.mangll.mesh import build_mesh
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est.builders import unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


def test_wavefront_tracking_refines_near_source():
    # points_per_wavelength=1 keeps the static mesh at the base level so
    # the dynamic tracking (not the wavelength rule) drives refinement.
    cfg = SeismicConfig(
        degree=2,
        source_frequency=8.0,
        base_level=1,
        max_level=3,
        points_per_wavelength=1.0,
    )
    run = SeismicRun(SerialComm(), cfg)
    assert run.forest.local.level.max() == 1  # static mesh stayed coarse
    # Plant a resolved, smooth energy blob near the source position (a
    # just-fired point source is a nodal spike whose discrete LGL energy
    # aliases under any re-meshing; the tracking behaviour is what is
    # under test).
    nl = run.mesh.nelem_local
    x = run.mesh.coords[:nl]
    src = np.asarray(run.cfg.source_position)
    blob = np.exp(-40 * ((x - src) ** 2).sum(-1))
    run.q[..., 3] = blob
    run.q[..., 4] = blob
    run.q[..., 5] = blob
    e_before = run.total_energy()
    run.adapt_to_wavefront(refine_threshold=0.02)
    # Energy preserved up to the coarse level-1 quadrature of the blob
    # (the transfer interpolant is polynomially exact; the residual
    # difference is the parent's 3-point LGL quadrature of its square).
    e_after = run.total_energy()
    assert e_after == pytest.approx(e_before, rel=0.2)
    # Fine elements cluster near the source (where the wavefront is).
    centers = element_centers(run.forest.local, run.geometry)
    d = np.linalg.norm(centers - src, axis=1)
    fine = run.forest.local.level == run.forest.local.level.max()
    assert d[fine].mean() < d[~fine].mean()
    # Time stepping continues on the adapted mesh.
    run.run(3)
    assert np.isfinite(run.q).all()


def test_wavefront_tracking_noop_before_source_fires():
    cfg = SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=2,
        points_per_wavelength=3.0,
    )
    run = SeismicRun(SerialComm(), cfg)
    n0 = run.global_elements()
    run.adapt_to_wavefront()  # zero field: must be a no-op
    assert run.global_elements() == n0


def test_elastic_2d_plane_wave():
    """2D velocity-strain elastic: P plane wave between mirror walls."""
    conn = unit_square()
    forest = Forest.new(conn, SerialComm(), level=3)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), 3, ghost)
    model = ElasticModel(2, homogeneous_material(1.0, 3.0, 1.5), bc="mirror")
    solver = DGOperator(model, 3).bind(MeshContext(forest, ghost, mesh, SerialComm()))
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    cp = 3.0
    prof = lambda s: np.exp(-60 * (s - 0.4) ** 2)
    q = np.zeros((nl, mesh.npts, 5))
    q[..., 0] = prof(x[..., 0])
    q[..., 2] = -prof(x[..., 0]) / cp  # Exx
    dt = solver.stable_dt(q, cfl=0.25)
    steps = max(1, int(0.05 / dt))
    T = steps * dt
    for _ in range(steps):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
    err = np.abs(q[..., 0] - prof(x[..., 0] - cp * T)).max()
    assert err < 0.08, err
    # No shear motion generated.
    assert np.abs(q[..., 1]).max() < 0.02


def test_coupled_acoustic_elastic_interface():
    """A fluid (mu=0) layer against a solid: the fluid guard keeps the
    solve finite and tangential traction vanishes in the fluid."""
    conn = unit_square()
    forest = Forest.new(conn, SerialComm(), level=3)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), 2, ghost)

    def material(x):
        # Fluid below, solid above, with a smooth resolved transition
        # (the collocation treatment of heterogeneity assumes resolvable
        # coefficients; mu is exactly zero in the fluid half to exercise
        # the impedance guard).
        ramp = np.clip((x[..., 1] - 0.45) / 0.15, 0.0, 1.0)
        s = ramp * ramp * (3 - 2 * ramp)  # smoothstep
        rho = 1.0 + s
        vs2 = 1.5**2 * s
        vp = 1.5 + 1.5 * s
        mu = rho * vs2
        lam = rho * vp**2 - 2 * mu
        return rho, lam, mu

    model = ElasticModel(2, material)
    solver = DGOperator(model, 2).bind(MeshContext(forest, ghost, mesh, SerialComm()))
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = np.zeros((nl, mesh.npts, 5))
    blob = np.exp(-60 * ((x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.25) ** 2))
    q[..., 2] = blob
    q[..., 3] = blob  # pressure-like in the fluid

    def energy(qq):
        dens = model.energy_density(qq, x)
        wdet = mesh.detj[:nl] * mesh.weights[None, :]
        return float((wdet * dens).sum())

    e0 = energy(q)
    dt = solver.stable_dt(q, cfl=0.25)
    es = [e0]
    for _ in range(25):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
        es.append(energy(q))
    assert np.isfinite(q).all()
    assert all(es[i + 1] <= es[i] * (1 + 1e-9) for i in range(len(es) - 1))
    # Waves crossed into the solid half.
    upper = x[..., 1] > 0.6
    assert np.abs(q[..., :2][upper]).max() > 1e-4


def test_forest_checksum_partition_invariant():
    conn = unit_square()

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        forest.refine(mask=forest.local.x == 0)
        from repro.p4est.balance import balance

        balance(forest)
        c1 = forest.checksum()
        forest.partition()
        c2 = forest.checksum()
        assert c1 == c2  # same leaves, different distribution
        return c1

    serial = spmd(1, prog)[0]
    for size in (2, 3):
        out = spmd(size, prog)
        assert all(c == serial for c in out)


def test_forest_checksum_detects_changes():
    forest = Forest.new(unit_square(), SerialComm(), level=2)
    c1 = forest.checksum()
    forest.refine(mask=np.eye(1, forest.local_count, 0, dtype=bool)[0])
    assert forest.checksum() != c1


def test_receivers_record_arrivals():
    """Seismograms: stations at increasing distance see the wave arrive
    later and weaker (geometric spreading)."""
    cfg = SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=2,
        points_per_wavelength=3.0, source_position=(0.0, 0.0, 0.85),
    )
    run = SeismicRun(SerialComm(), cfg)
    stations = np.array(
        [
            [0.0, 0.15, 0.85],
            [0.0, 0.45, 0.75],
        ]
    )
    run.add_receivers(stations)
    run.run(40)
    t, v = run.seismograms()
    assert v.shape == (40, 2, 3)
    assert np.isfinite(v).all()
    amp = np.linalg.norm(v, axis=2)  # (nt, 2)
    # Both stations eventually move; the near one first and stronger.
    assert amp[:, 0].max() > 0
    first0 = np.argmax(amp[:, 0] > 0.02 * amp[:, 0].max())
    first1 = np.argmax(amp[:, 1] > 0.02 * amp[:, 0].max())
    assert amp[:, 0].max() >= amp[:, 1].max()
    if amp[:, 1].max() > 0.02 * amp[:, 0].max():
        assert first1 >= first0


def test_receivers_survive_adaptation():
    cfg = SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=2,
        points_per_wavelength=1.0,
    )
    run = SeismicRun(SerialComm(), cfg)
    run.add_receivers(np.array([[0.0, 0.2, 0.8]]))
    run.run(5)
    run.adapt_to_wavefront(refine_threshold=0.5)
    run.run(5)
    t, v = run.seismograms()
    assert len(t) == 10
    assert np.isfinite(v).all()
