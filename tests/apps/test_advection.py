"""Tests for the §III-B spherical-shell advection application."""

import numpy as np
import pytest

from repro.apps.advection.driver import AdvectionConfig, AdvectionRun
from repro.apps.advection.fronts import (
    SphericalFronts,
    rotate_points,
    rotation_velocity,
)
from repro.mangll.geometry import element_centers
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


def test_rotation_velocity_and_rodrigues():
    v = rotation_velocity([0, 0, 1.0])
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5]])
    np.testing.assert_allclose(v(x), [[0, 1, 0], [-2, 0, 0]])
    # Rotating by 90 degrees about z maps x-axis to y-axis.
    r = rotate_points(np.array([[1.0, 0, 0]]), np.array([0, 0, 1.0]), np.pi / 2)
    np.testing.assert_allclose(r, [[0, 1, 0]], atol=1e-12)
    # Rotation preserves lengths.
    r2 = rotate_points(x, np.array([0.3, -1.0, 0.2]), 0.7)
    np.testing.assert_allclose(
        np.linalg.norm(r2, axis=1), np.linalg.norm(x, axis=1), atol=1e-12
    )


@pytest.mark.parametrize(
    "omega", [(0.0, 0.0, 1.0), (0.3, -0.2, 0.9), (0.0, -0.0, 0.0), (-0.0, 1.0, 0.0)]
)
def test_rotation_velocity_is_np_cross_to_the_byte(omega):
    """The component form is np.cross's own arithmetic (two products and a
    subtraction per entry), signed zeros included."""
    rng = np.random.default_rng(21)
    for shape in ((40, 27, 3), (5, 3), (3,)):
        x = rng.standard_normal(shape)
        x.flat[::7] = 0.0
        x.flat[3::11] = -0.0
        got = rotation_velocity(omega)(x)
        want = np.cross(np.broadcast_to(np.asarray(omega), x.shape), x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_fronts_value_advects_exactly():
    fr = SphericalFronts()
    x = np.array([[0.8, 0.1, 0.0], [0.0, 0.9, 0.2]])
    t = 0.6
    # The advected value at a rotated point equals the initial value.
    xr = rotate_points(x, np.asarray(fr.omega), t)
    np.testing.assert_allclose(fr.value(xr, t), fr.value(x, 0.0), atol=1e-12)


def test_front_distance_zero_on_surface():
    fr = SphericalFronts()
    c = fr.centers[0]
    p = c + np.array([fr.radius, 0, 0])
    assert abs(fr.front_distance(p[None, :], 0.0)[0]) < 1e-12


def small_config():
    return AdvectionConfig(degree=2, base_level=1, max_level=2, adapt_every=8)


def test_run_setup_refines_at_fronts():
    run = AdvectionRun(SerialComm(), small_config())
    hist = run.forest.levels_histogram()
    assert hist[2] > 0  # refined somewhere
    assert hist[1] > 0  # but not everywhere
    assert run.global_elements() == run.forest.global_count
    assert run.global_unknowns() == run.global_elements() * 27


def test_unchanged_forest_keeps_the_binding():
    """An adapt that marks nothing leaves ``Forest.revision`` alone: the
    run keeps its bound operator, and its next RK step is the bytes of a
    twin run that rebuilds."""
    kept, twin = (AdvectionRun(SerialComm(), small_config()) for _ in range(2))
    dt = kept.solver.stable_dt(kept.q, cfl=kept.cfg.cfl)
    for run in (kept, twin):
        run._refine_mask = run._coarsen_mask = lambda t, run=run: np.zeros(
            run.forest.local_count, dtype=bool
        )
    solver = kept.solver
    for run in (kept, twin):
        run.adapt()
    twin._rebuild()
    assert kept.solver is solver and twin.solver is not solver
    for run in (kept, twin):
        run.run(1, dt=dt)
    assert kept.q.tobytes() == twin.q.tobytes()


def test_run_integrates_and_adapts():
    run = AdvectionRun(SerialComm(), small_config())
    m0 = run.mass()
    n0 = run.global_elements()
    run.run(16)  # two adapt cycles at adapt_every=8
    assert run.adapt_count == 2
    assert run.step_count == 16
    # Tracer mass conserved up to discrete-geometry effects: the transfer
    # projection conserves the reference-space integral (detJ varies on
    # the curved shell) and the wall flux v.n vanishes only to the
    # accuracy of the interpolated metric.
    np.testing.assert_allclose(run.mass(), m0, rtol=1e-3)
    # Phase timers populated.
    assert run.timers.seconds["integrate"] > 0
    assert "adapt" in run.timers.seconds
    assert 0 < run.amr_fraction() < 1
    # The error against the analytic solution stays moderate.
    assert run.l2_error() < 0.25


def test_adapted_mesh_tracks_moving_fronts():
    cfg = small_config()
    run = AdvectionRun(SerialComm(), cfg)
    run.run(cfg.adapt_every)
    # After adaptation, fine elements concentrate near the fronts.
    centers = element_centers(run.forest.local, run.geometry)
    d = run.fronts.front_distance(centers, run.t)
    fine = run.forest.local.level == cfg.max_level
    assert fine.any()
    assert d[fine].mean() < d[~fine].mean()


@pytest.mark.parametrize("size", [2, 3])
def test_parallel_run_matches_serial_counts(size):
    cfg = small_config()

    serial = AdvectionRun(SerialComm(), cfg)
    serial.run(8)
    ref = (serial.global_elements(), round(serial.mass(), 9))

    def prog(comm):
        run = AdvectionRun(comm, cfg)
        run.run(8)
        return run.global_elements(), round(run.mass(), 9)

    for out in spmd(size, prog):
        assert out == ref


@pytest.mark.parametrize("size", [1, 3, 8])
def test_setup_adaptation_loop_is_uniform(size):
    """Regression: the initial-adaptation trip count must be uniform.

    The setup loop bound used to be computed from the *local* minimum
    level, which differs across ranks once partitioning is uneven (and
    is undefined on empty ranks) — spmdlint flagged it as SPMD002.  Run
    setup under the collective sanitizer so any rank executing a
    different allreduce/refine sequence aborts the test.
    """
    from repro.parallel.layers import Sanitize

    cfg = small_config()
    serial = AdvectionRun(SerialComm(), cfg)
    ref = (serial.forest.global_count, serial.forest.checksum())

    def prog(comm):
        run = AdvectionRun(comm, cfg)
        return run.forest.global_count, run.forest.checksum()

    for out in spmd(size, prog, layers=[Sanitize()]):
        assert out == ref
