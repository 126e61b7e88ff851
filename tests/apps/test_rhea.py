"""Tests for Rhea: rheology, Stokes solver verification, energy transport,
and the Picard/AMR driver."""

import numpy as np
import pytest

from repro.apps.rhea.driver import RheaConfig, RheaRun
from repro.apps.rhea.energy import stable_energy_dt, supg_energy_rhs
from repro.apps.rhea.rheology import PlateModel, Rheology, synthetic_temperature
from repro.apps.rhea.stokes import StokesProblem
from repro.mangll.cgops import CGSpace
from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.p4est.balance import balance
from repro.p4est.builders import unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import SerialComm


# --- rheology -----------------------------------------------------------------


def test_viscosity_temperature_dependence():
    rh = Rheology()
    hot = rh.viscosity(np.array([1.0]), np.array([1.0]))
    cold = rh.viscosity(np.array([0.3]), np.array([1.0]))
    assert cold > hot  # colder mantle is stiffer


def test_viscosity_strain_rate_weakening():
    rh = Rheology()
    slow = rh.viscosity(np.array([0.8]), np.array([1e-2]))
    fast = rh.viscosity(np.array([0.8]), np.array([1e2]))
    assert fast < slow  # dislocation creep: c3 < 0


def test_viscosity_yielding_caps_stress():
    rh = Rheology(c3=0.0, tau_yield=10.0, eta_max=1e12)
    II = np.array([1e4])
    eta = rh.viscosity(np.array([0.2]), II)
    stress = 2 * eta * np.sqrt(II)
    assert stress <= 10.0 + 1e-9


def test_viscosity_bounds():
    rh = Rheology(eta_min=0.5, eta_max=2.0)
    vals = rh.viscosity(np.array([0.05, 5.0]), np.array([1e-9, 1e9]))
    assert vals.min() >= 0.5 and vals.max() <= 2.0


def test_plate_weak_zones():
    pm = PlateModel()
    # On the z = 0 great circle (pole +z) near the surface; deep on the
    # same circle; and a shallow point away from all three circles.
    far = 0.99 * np.array([0.5, -0.3, 0.81]) / np.linalg.norm([0.5, -0.3, 0.81])
    x = np.array([[0.99, 0.0, 0.001], [0.7, 0.0, 0.001], far])
    f = pm.weak_factor(x)
    assert f[0] == pm.weakening  # on the boundary band, shallow
    assert f[1] == 1.0  # too deep
    assert f[2] == 1.0  # shallow but away from every boundary


def test_synthetic_temperature_profile():
    x = np.array([[0.0, 0.0, 0.56], [0.0, 0.0, 0.99]])
    T = synthetic_temperature(x)
    assert T[0] > T[1]  # hot bottom, cold top
    assert 0.0 < T.min() and T.max() <= 1.1


# --- Stokes verification --------------------------------------------------------


def make_cgs(level=3, refine_fn=None):
    conn = unit_square()
    comm = SerialComm()
    forest = Forest.new(conn, comm, level=level)
    if refine_fn is not None:
        forest.refine(mask=refine_fn(forest))
        balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), 1, ghost)
    return conn, forest, CGSpace(mesh, lnodes(forest, ghost, 1), comm)


def test_stokes_zero_force_zero_velocity():
    conn, forest, cgs = make_cgs(2)
    sp_ = StokesProblem(cgs)
    nl = cgs.mesh.nelem_local
    eta = np.ones((nl, cgs.npts))
    force = np.zeros((nl, cgs.npts, 2))
    fixed = np.repeat(cgs.boundary_node_mask(conn)[:, None], 2, axis=1)
    res = sp_.solve(eta, force, fixed, tol=1e-10)
    assert res.converged
    np.testing.assert_allclose(res.u, 0.0, atol=1e-8)


def test_stokes_buoyant_blob_rises():
    """A hot blob at the center drives an upward flow above it."""
    conn, forest, cgs = make_cgs(3)
    sp_ = StokesProblem(cgs)
    nl = cgs.mesh.nelem_local
    x = cgs.mesh.coords[:nl]
    eta = np.ones((nl, cgs.npts))
    force = np.zeros((nl, cgs.npts, 2))
    blob = np.exp(-60 * ((x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.4) ** 2))
    force[..., 1] = 100.0 * blob
    fixed = np.repeat(cgs.boundary_node_mask(conn)[:, None], 2, axis=1)
    res = sp_.solve(eta, force, fixed, tol=1e-8)
    assert res.converged
    xy = cgs.node_coords(MultilinearGeometry(conn))
    above = (np.abs(xy[:, 0] - 0.5) < 0.1) & (np.abs(xy[:, 1] - 0.55) < 0.15)
    assert res.u[above, 1].mean() > 0  # upwelling above the blob
    # Discrete incompressibility: global divergence ~ 0 via B u = C p.
    assert res.vcycles > 0
    assert res.timings["vcycle"] > 0


def test_stokes_converges_with_variable_viscosity():
    conn, forest, cgs = make_cgs(3)
    sp_ = StokesProblem(cgs)
    nl = cgs.mesh.nelem_local
    x = cgs.mesh.coords[:nl]
    # 4 orders of magnitude viscosity contrast.
    eta = 10.0 ** (4.0 * x[..., 0])
    force = np.zeros((nl, cgs.npts, 2))
    force[..., 1] = np.sin(np.pi * x[..., 0])
    fixed = np.repeat(cgs.boundary_node_mask(conn)[:, None], 2, axis=1)
    res = sp_.solve(eta, force, fixed, tol=1e-7, maxiter=600)
    assert res.converged, res.residuals[-1]


def test_stokes_manufactured_convergence():
    """L2 velocity error drops ~4x per refinement for a smooth solution.

    Manufactured: u = curl(psi) with psi = x^2(1-x)^2 y^2(1-y)^2 (zero
    boundary values), eta = 1, f = -lap u + grad p with p = x y - 1/4.
    """

    def exact_u(x, y):
        psi_y = lambda xx, yy: xx**2 * (1 - xx) ** 2 * (2 * yy * (1 - yy) ** 2 - 2 * yy**2 * (1 - yy))
        psi_x = lambda xx, yy: (2 * xx * (1 - xx) ** 2 - 2 * xx**2 * (1 - xx)) * yy**2 * (1 - yy) ** 2
        return psi_y(x, y), -psi_x(x, y)

    def forcing(x, y):
        # Numerically evaluate -lap u + grad p via finite differences of
        # the exact fields (spectrally smooth, h=1e-5 is plenty).
        h = 1e-5

        def lap(f):
            return (
                f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)
            ) / h**2

        ux = lambda xx, yy: exact_u(xx, yy)[0]
        uy = lambda xx, yy: exact_u(xx, yy)[1]
        fx = -lap(ux) + y  # dp/dx = y
        fy = -lap(uy) + x
        return fx, fy

    errs = []
    for level in (3, 4):
        conn, forest, cgs = make_cgs(level)
        sp_ = StokesProblem(cgs)
        nl = cgs.mesh.nelem_local
        xq = cgs.mesh.coords[:nl]
        eta = np.ones((nl, cgs.npts))
        fx, fy = forcing(xq[..., 0], xq[..., 1])
        force = np.stack([fx, fy], axis=-1)
        fixed = np.repeat(cgs.boundary_node_mask(conn)[:, None], 2, axis=1)
        res = sp_.solve(eta, force, fixed, tol=1e-10, maxiter=2000)
        assert res.converged
        xy = cgs.node_coords(MultilinearGeometry(conn))
        uex, vex = exact_u(xy[:, 0], xy[:, 1])
        err = np.sqrt(np.mean((res.u[:, 0] - uex) ** 2 + (res.u[:, 1] - vex) ** 2))
        ref = np.sqrt(np.mean(uex**2 + vex**2))
        errs.append(err / ref)
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.6, (errs, rate)


def test_strain_rate_invariant_of_linear_shear():
    conn, forest, cgs = make_cgs(2)
    sp_ = StokesProblem(cgs)
    xy = cgs.node_coords(MultilinearGeometry(conn))
    # u = (y, 0): eps = [[0, 1/2], [1/2, 0]], II = 1/2.
    u = np.stack([xy[:, 1], np.zeros(len(xy))], axis=1)
    II = sp_.strain_rate_invariant(u)
    np.testing.assert_allclose(II, 0.5, atol=1e-10)


# --- energy -----------------------------------------------------------------------


def test_supg_energy_advects_profile():
    conn, forest, cgs = make_cgs(3)
    xy = cgs.node_coords(MultilinearGeometry(conn))
    # Uniform rightward velocity; steep front in T.
    u = np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=1)
    T = 0.5 * (1 - np.tanh((xy[:, 0] - 0.3) / 0.1))
    dTdt = supg_energy_rhs(cgs, T, u, kappa=0.0)
    # The front moves right: dT/dt < 0 ahead of the front center region
    # where T decreases in x (dT/dt = -u dT/dx > 0 nowhere... sign check:)
    # T decreasing in x => dT/dx < 0 => dT/dt = -u.grad T > 0.
    front = (np.abs(xy[:, 0] - 0.3) < 0.1) & (~cgs.boundary_node_mask(conn))
    assert dTdt[front].mean() > 0
    dt = stable_energy_dt(cgs, u, kappa=0.0)
    assert 0 < dt < 1.0


def test_supg_energy_pure_diffusion_decays():
    conn, forest, cgs = make_cgs(3)
    xy = cgs.node_coords(MultilinearGeometry(conn))
    u = np.zeros((len(xy), 2))
    T = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
    dTdt = supg_energy_rhs(cgs, T, u, kappa=1.0)
    interior = ~cgs.boundary_node_mask(conn)
    # dT/dt = -2 pi^2 T for the sine mode.
    ratio = dTdt[interior] / np.maximum(T[interior], 1e-12)
    assert np.median(ratio) < -10  # ~ -2 pi^2 = -19.7 up to h^2 error


# --- driver ----------------------------------------------------------------------


def test_stable_energy_dt_equals_the_element_loop_on_the_shell():
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=2))
    run.picard_step()
    cgs, u = run.cgs, run.u
    assert np.abs(u).max() > 0
    nl = cgs.mesh.nelem_local
    h = cgs.mesh.element_volumes()[:nl] ** (1.0 / cgs.dim)
    speed = np.linalg.norm(u, axis=1)
    smax = np.array([speed[cgs.ln.element_nodes[e]].max() for e in range(nl)])
    dt_adv = h / np.maximum(smax, 1e-12)
    dt_diff = h**2 / (4.0 * 1e-9)
    assert dt_adv.min() < dt_diff.min()  # the advective bound decides
    want = 0.4 * float(min(dt_adv.min(), dt_diff.min()))
    assert stable_energy_dt(cgs, u, kappa=1e-9) == want


def test_rhea_box2d_runs_picard_and_adapts():
    cfg = RheaConfig(
        domain="box2d", base_level=2, max_level=3, rayleigh=1e3,
        picard_per_adapt=2, stokes_tol=1e-6, stokes_maxiter=400,
    )
    run = RheaRun(SerialComm(), cfg)
    run.run(3)  # picard, picard, adapt, picard
    assert run.picard_count == 3
    assert run.adapt_count == 1
    assert run.velocity_rms() > 0
    pct = run.runtime_percentages()
    assert abs(sum(pct.values()) - 100.0) < 1e-6
    assert pct["vcycle"] > 0 and pct["amr"] > 0
    # Nonlinear convergence: later Stokes solves start closer (fewer its
    # than a cold start would need is hard to assert robustly; check the
    # iterations stay bounded).
    assert all(r.converged for r in run.stokes_history)


def test_picard_iteration_counts_pinned():
    """Literals recorded on BFBT with Chebyshev-smoothed pressure V-cycles
    (commit bba0a20), in a commit of their own; solver-layer optimizations
    must keep the mathematics, so these are never regenerated alongside a
    change to the code they pin."""
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=1))
    iterations, rms = [], []
    for step in range(4):
        if step == 2:
            run.adapt()
        result = run.picard_step()
        assert result.converged
        iterations.append(result.iterations)
        rms.append(run.velocity_rms())
    assert iterations == [12, 12, 12, 12]
    assert rms == pytest.approx(
        [
            0.0012474734764784201,
            0.010556841992643447,
            0.0012474734764784201,
            0.010556841992642644,
        ],
        rel=1e-8,
    )


def test_picard_iteration_counts_pinned_at_workload_size():
    """The ``stokes_picard`` benchmark's mesh (levels 1-2, 808 elements,
    no plume): literals recorded on BFBT with Chebyshev-smoothed pressure
    V-cycles (commit bba0a20), in a commit of their own, and never
    regenerated alongside a change to the code they pin."""
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=2))
    assert run.forest.global_count == 808
    iterations, rms = [], []
    for step in range(4):
        if step == 2:
            run.adapt()
        result = run.picard_step()
        assert result.converged
        iterations.append(result.iterations)
        rms.append(run.velocity_rms())
    assert iterations == [15, 15, 15, 15]
    assert rms == pytest.approx(
        [
            0.0005807585395208428,
            0.002680959909974693,
            0.000580758539520843,
            0.0026809599099748872,
        ],
        rel=1e-8,
    )


def test_picard_converges_quickly_at_max_level_3():
    """Levels 1-3 (2,964 elements): the second step needed 300+ MINRES
    iterations under the inverse-viscosity pressure mass; BFBT holds the
    count under the plate weak zones' viscosity contrast (21-22 a step,
    27-28 with one SGS sweep in the pressure V-cycles)."""
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=3))
    for step in range(4):
        if step == 2:
            run.adapt()
        result = run.picard_step()
        assert result.converged and result.iterations <= 26


def test_noop_adapt_keeps_the_stokes_problem():
    """At ``max_level == base_level`` every adapt leaves the forest as it
    was: the run keeps its mesh, space and Stokes problem (with the plan
    and saddle structure built on them), and its next solve is the bytes
    of a twin run that rebuilds them."""
    cfg = RheaConfig(base_level=1, max_level=1)
    kept, twin = RheaRun(SerialComm(), cfg), RheaRun(SerialComm(), cfg)
    for run in (kept, twin):
        run.picard_step()
    objects = (kept.mesh, kept.cgs, kept.stokes)
    revision = kept.forest.revision
    for run in (kept, twin):
        run.adapt()
    twin._rebuild()
    assert kept.forest.revision == revision
    assert all(a is b for a, b in zip((kept.mesh, kept.cgs, kept.stokes), objects))
    assert twin.stokes is not kept.stokes
    got, want = kept.picard_step(), twin.picard_step()
    assert got.u.tobytes() == want.u.tobytes()
    assert got.p.tobytes() == want.p.tobytes()


def test_rhea_shell_setup_refines_plates():
    cfg = RheaConfig(domain="shell", base_level=1, max_level=2, stokes_maxiter=2)
    run = RheaRun(SerialComm(), cfg)
    # Static adaptation refined somewhere (plates/temperature anomalies).
    hist = run.forest.levels_histogram()
    assert hist[2] > 0
    assert hist[1] > 0
    # Temperature in physical range.
    assert 0.0 < run.T.min() and run.T.max() <= 1.2


def test_rhea_rejects_unknown_domain():
    with pytest.raises(ValueError):
        RheaRun(SerialComm(), RheaConfig(domain="donut"))
