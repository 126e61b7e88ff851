"""Differential kernels: compiled vs the kept reference on generated cases.

``test_compiler.py`` walks a hand-enumerated dim x degree x model matrix
on two fixed meshes.  Here Hypothesis draws the case: dimension, degree,
model kind, the forest (one tree, several, rotated tree links, the shell,
periodic bricks) and a random refinement pattern that balance
turns into hanging faces.  The contract per kind is the compiler's own:
``np.array_equal`` for advection, whose every float is the reference's,
<= 1e-13 relative for the restructured elastic kind.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.apps.dgea.elastic import ElasticModel  # noqa: E402
from repro.mangll import compiler as kc  # noqa: E402
from repro.mangll.geometry import (  # noqa: E402
    BrickGeometry,
    MultilinearGeometry,
    ShellGeometry,
)
from repro.mangll.mesh import build_mesh  # noqa: E402
from repro.mangll.models import AdvectionModel  # noqa: E402
from repro.mangll.op import DGOperator, MeshContext  # noqa: E402
from repro.p4est.balance import balance  # noqa: E402
from repro.p4est.builders import (  # noqa: E402
    brick_2d,
    brick_3d,
    rotcubes,
    shell,
    two_trees_2d,
    unit_cube,
    unit_square,
)
from repro.p4est.forest import Forest  # noqa: E402
from repro.p4est.ghost import build_ghost  # noqa: E402
from repro.parallel import SerialComm  # noqa: E402

#: name -> (dim, connectivity, geometry of that connectivity, base level)
FORESTS = {
    "square": (2, unit_square, MultilinearGeometry, 1),
    "two_trees": (2, two_trees_2d, MultilinearGeometry, 1),
    "periodic2": (2, lambda: brick_2d(2, 2, True, True), lambda c: BrickGeometry(2, 2), 1),
    "cube": (3, unit_cube, MultilinearGeometry, 1),
    "rotcubes": (3, rotcubes, MultilinearGeometry, 0),
    "shell": (3, shell, lambda c: ShellGeometry(0.55, 1.0), 0),
    "periodic3": (
        3,
        lambda: brick_3d(2, 2, 2, True, True, True),
        lambda c: BrickGeometry(2, 2, 2, dim=3),
        0,
    ),
}


def swirl(x):
    """A position-dependent velocity, so the hoisted table is not constant."""
    return np.stack([1.0 + 0.3 * x[..., 1], 0.5 - 0.2 * x[..., 0]] + [
        0.25 + 0.1 * x[..., 0] for _ in range(x.shape[-1] - 2)
    ], axis=-1)


def graded_material(x):
    """Heterogeneous, and 2-periodic: the periodic bricks stay one medium."""
    s = np.pi * (x[..., 0] + x[..., 1])
    return 1.0 + 0.1 * np.sin(s), 2.0 + 0.3 * np.sin(3.0 * s), 1.5 + 0.2 * np.cos(2.0 * s)


def fluid_band_material(x):
    """``graded_material`` with mu = 0 (a fluid) on 2-periodic bands.

    The band edge is a level of a smooth function no mesh node sits on,
    so both sides of an interface agree on which points are fluid."""
    rho, lam, mu = graded_material(x)
    return rho, lam, np.where(np.sin(np.pi * (x[..., 0] - x[..., 1])) > 0.3173, 0.0, mu)


MODELS = {
    "advection": lambda dim: AdvectionModel(dim, swirl, inflow=0.25),
    "elastic": lambda dim: ElasticModel(dim, graded_material, bc="mirror"),
    "elastic-free-fluid": lambda dim: ElasticModel(dim, fluid_band_material, bc="free"),
}


@settings(max_examples=30, deadline=None)
@given(
    forest_name=st.sampled_from(sorted(FORESTS)),
    degree=st.integers(1, 3),
    kind=st.sampled_from(sorted(MODELS)),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.0, 0.2, 0.5]),
    t=st.sampled_from([0.0, 0.37]),
)
def test_compiled_matches_reference(forest_name, degree, kind, seed, density, t):
    dim, conn_fn, geo_fn, level = FORESTS[forest_name]
    conn = conn_fn()
    comm = SerialComm()
    rng = np.random.default_rng(seed)
    forest = Forest.new(conn, comm, level=level)
    forest.refine(mask=rng.random(len(forest.local)) < density)
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, geo_fn(conn), degree, ghost)
    ctx = MeshContext(forest, ghost, mesh, comm)
    model = MODELS[kind](dim)
    assert kc.model_kind(model) == kind.partition("-")[0]
    q = rng.standard_normal((mesh.nelem_local, mesh.npts, model.nfields))
    got = DGOperator(model, degree).bind(ctx).rhs(q, t)
    want = DGOperator(model, degree, compile=False).bind(ctx).rhs(q, t)
    if kc.model_kind(model) == "elastic":
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)
