"""Tests for dGea: PREM, the elastic flux model, and the seismic driver."""

import numpy as np
import pytest

from repro.apps.dgea.driver import SeismicConfig, SeismicRun, ricker
from repro.apps.dgea.elastic import (
    ElasticModel,
    homogeneous_material,
    voigt_count,
    voigt_pairs,
)
from repro.apps.dgea.prem import CMB_RADIUS_KM, EARTH_RADIUS_KM, PREM
from repro.mangll.geometry import MultilinearGeometry, element_centers
from repro.mangll.mesh import build_mesh
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est.builders import unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


# --- PREM ---------------------------------------------------------------------


def test_prem_surface_and_center_values():
    prem = PREM()
    rho, vp, vs = prem.evaluate(np.array([1.0, 0.0]))
    assert 2.5 < rho[0] < 2.7  # crust density
    assert 5.5 < vp[0] < 6.1
    assert 12.5 < rho[1] < 13.3  # inner core
    assert 10.8 < vp[1] < 11.5


def test_prem_outer_core_is_fluid():
    prem = PREM()
    r = 2000.0 / EARTH_RADIUS_KM
    _, _, vs = prem.evaluate(np.array([r]))
    assert vs[0] == 0.0


def test_prem_discontinuity_at_cmb():
    prem = PREM()
    eps = 1e-4
    r_cmb = CMB_RADIUS_KM / EARTH_RADIUS_KM
    below = prem.evaluate(np.array([r_cmb - eps]))
    above = prem.evaluate(np.array([r_cmb + eps]))
    # Density drops by nearly half; vs jumps from 0 to ~7.3.
    assert below[0][0] > 9.0 and above[0][0] < 6.0
    assert below[2][0] == pytest.approx(0.0, abs=0.01)
    assert above[2][0] > 7.0


def test_prem_wavelength_field_varies():
    prem = PREM()
    x = np.array([[0.0, 0.0, 0.999], [0.0, 0.0, 0.56]])
    lam = prem.min_wavelength(x, 1.0)
    assert lam[1] > lam[0]  # faster deep mantle -> longer wavelength


def test_prem_lame_consistency():
    prem = PREM()
    x = np.array([[0.9, 0.0, 0.0]])
    rho, lam, mu = prem.lame_parameters(x)
    _, vp, vs = prem.evaluate(np.array([0.9]))
    np.testing.assert_allclose(np.sqrt(mu / rho), vs, rtol=1e-12)
    np.testing.assert_allclose(np.sqrt((lam + 2 * mu) / rho), vp, rtol=1e-12)


# --- elastic model ------------------------------------------------------------


def test_voigt_layout():
    assert voigt_count(2) == 3 and voigt_count(3) == 6
    assert voigt_pairs(3)[3] == (1, 2)


def test_stress_strain_roundtrip():
    model = ElasticModel(3, homogeneous_material(2.0, 5.0, 3.0))
    rng = np.random.default_rng(0)
    E = rng.standard_normal((4, 6))
    rho = np.full(4, 2.0)
    mu = rho * 9.0
    lam = rho * 25.0 - 2 * mu
    sig = model.stress(E, lam, mu)
    back = model.strain_from_stress(sig, lam, mu)
    np.testing.assert_allclose(back, E, atol=1e-12)
    # Stress is symmetric.
    np.testing.assert_allclose(sig, np.swapaxes(sig, -1, -2), atol=1e-14)


def test_numerical_flux_consistency():
    """F*(q, q, n) equals the normal flux F(q).n."""
    model = ElasticModel(3, homogeneous_material(1.5, 4.0, 2.2))
    rng = np.random.default_rng(1)
    q = rng.standard_normal((5, 9))
    n = rng.standard_normal((5, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    x = rng.standard_normal((5, 3))
    F = model.volume_flux(q, x)
    Fn = np.einsum("pfc,pc->pf", F, n)
    star = model.numerical_flux(q, q.copy(), n, x)
    np.testing.assert_allclose(star, Fn, atol=1e-12)


def test_boundary_state_gives_zero_traction_star():
    model = ElasticModel(3, homogeneous_material(1.0, 3.0, 1.7))
    rng = np.random.default_rng(2)
    q = rng.standard_normal((6, 9))
    n = rng.standard_normal((6, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    x = np.zeros((6, 3))
    qp = model.boundary_state(q, n, x, 0.0)
    rho, lam, mu = model.material(x)
    sp = model.stress(qp[..., 3:], lam, mu)
    sm = model.stress(q[..., 3:], lam, mu)
    Tp = np.einsum("pij,pj->pi", sp, n)
    Tm = np.einsum("pij,pj->pi", sm, n)
    np.testing.assert_allclose(Tp, -Tm, atol=1e-11)
    # Velocity unchanged.
    np.testing.assert_allclose(qp[..., :3], q[..., :3])


def elastic_cube_setup(level=1, degree=3, vs=2.0, bc="free"):
    conn = unit_cube()
    forest = Forest.new(conn, SerialComm(), level=level)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), degree, ghost)
    model = ElasticModel(3, homogeneous_material(1.0, 4.0, vs), bc=bc)
    ctx = MeshContext(forest, ghost, mesh, SerialComm())
    solver = DGOperator(model, degree).bind(ctx)
    return mesh, model, solver


def test_elastic_energy_stable_and_waves_propagate():
    mesh, model, solver = elastic_cube_setup()
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = np.zeros((nl, mesh.npts, 9))
    # Initial pressure-like blob in the strain trace.
    blob = np.exp(-40 * ((x - 0.5) ** 2).sum(-1))
    q[..., 3] = blob
    q[..., 4] = blob
    q[..., 5] = blob

    def energy(qq):
        dens = model.energy_density(qq, x)
        wdet = mesh.detj[:nl] * mesh.weights[None, :]
        return float((wdet * dens).sum())

    e0 = energy(q)
    dt = solver.stable_dt(q, cfl=0.3)
    es = [e0]
    for _ in range(25):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
        es.append(energy(q))
    # Upwind flux: non-increasing energy, but most energy survives.
    assert all(es[i + 1] <= es[i] * (1 + 1e-10) for i in range(len(es) - 1))
    assert es[-1] > 0.25 * e0
    # Velocity developed (the blob radiates).
    assert np.abs(q[..., :3]).max() > 1e-3


def test_elastic_plane_p_wave_advects():
    """A plane P-wave between free-slip (mirror) walls propagates at cp
    without generating shear motion — the mirror condition supports the
    plane wave exactly, unlike a free surface which would radiate from
    the nonzero lateral stress sigma_yy = lambda E_xx."""
    mesh, model, solver = elastic_cube_setup(level=2, degree=3, bc="mirror")
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    rho, lam, mu = model.material(x)
    cp = float(np.sqrt((lam + 2 * mu) / rho)[0, 0])
    k = 2 * np.pi
    # Rightward-going P wave: v_x = f(x - cp t), Exx = -v_x / cp.
    prof = lambda s: np.exp(-50 * (s - 0.5) ** 2)
    q = np.zeros((nl, mesh.npts, 9))
    q[..., 0] = prof(x[..., 0])
    q[..., 3] = -prof(x[..., 0]) / cp
    dt = solver.stable_dt(q, cfl=0.25)
    steps = max(1, int(0.04 / dt))
    T = steps * dt
    for _ in range(steps):
        q = lsrk45_step(q, 0.0, dt, lambda u, t: solver.rhs(u, t))
    # The peak of v_x should have moved right by ~cp T.
    before = prof(x[..., 0] - cp * T)
    err = np.abs(q[..., 0] - before).max()
    assert err < 0.1, err


# --- driver ---------------------------------------------------------------------


def small_seismic():
    return SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=2,
        points_per_wavelength=4.0,
    )


def test_ricker_shape():
    f = 2.0
    t = np.linspace(0, 2, 400)
    s = ricker(t, f)
    assert abs(s[0]) < 1e-4  # quiescent start (delay 1.2/f)
    assert s.max() > 0.9  # peak near t0


def test_seismic_meshing_adapts_to_velocity():
    cfg = SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=3,
        points_per_wavelength=4.0,
    )
    run = SeismicRun(SerialComm(), cfg)
    assert run.meshing_seconds > 0
    # Slow shallow layers get finer elements than the fast deep mantle
    # (the Fig. 8 "mesh adapted to the size of spatially-variable
    # wavelengths" behaviour).
    levels = run.forest.local.level
    centers = element_centers(run.forest.local, run.geometry)
    r = np.linalg.norm(centers, axis=1)
    shallow = r > 0.9
    deep = r < 0.75
    assert shallow.any() and deep.any()
    assert levels[shallow].astype(float).mean() > levels[deep].astype(float).mean()


def test_seismic_run_radiates_energy():
    run = SeismicRun(SerialComm(), small_seismic())
    assert run.total_energy() == 0.0
    per_step = run.run(10)
    assert per_step > 0
    assert run.total_energy() > 0  # the source injected energy
    assert run.global_unknowns() == run.global_elements() * 27 * 9


@pytest.mark.parametrize("size", [2])
def test_seismic_parallel_consistent(size):
    cfg = small_seismic()
    serial = SeismicRun(SerialComm(), cfg)
    ref = serial.global_elements()

    def prog(comm):
        run = SeismicRun(comm, cfg)
        run.run(3)
        return run.global_elements(), round(run.total_energy(), 10)

    outs = spmd(size, prog)
    assert len({o[0] for o in outs}) == 1
    assert outs[0][0] == ref
    assert len({o[1] for o in outs}) == 1
