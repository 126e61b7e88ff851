"""Memory pins: what a mesh and a compiled binding keep, and when a
rebuild lets the outgoing binding go.

``peak_rss_mb`` is an end-to-end metric of every workload; these tests pin
the holders behind it in bytes, not in RSS, so they are exact and fast:

- a ``Mesh`` keeps coordinates, inverse metric and volume Jacobian per
  element node, and nothing else of element size;
- the arrays a compiled binding reaches — outside the mesh it is bound
  to — are a bounded multiple of the state ``q`` it advances;
- a compiled binding keeps no reference face tables, and its interpreted
  fallback still builds them when it runs;
- an app's ``_rebuild`` frees the outgoing binding before it builds the
  next mesh, so the old binding never coexists with two meshes.

``test_kernel_blocks.py`` bounds what one ``rhs`` call allocates, with
``tracemalloc``; these pins count what is kept.
"""

import weakref

import numpy as np
import pytest

import repro.apps.advection.driver as advection_driver
import repro.apps.dgea.driver as dgea_driver
from repro.apps.advection.driver import AdvectionConfig, AdvectionRun
from repro.apps.dgea.driver import SeismicConfig, SeismicRun
from repro.apps.dgea.elastic import ElasticModel
from repro.mangll.geometry import MultilinearGeometry, ShellGeometry
from repro.mangll.mesh import Mesh, build_mesh
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.p4est.balance import balance
from repro.p4est.builders import shell, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.mangll.test_kernel_blocks import graded_material
from tests.parallel.helpers import run as spmd

SIZES = (1, 3)

#: Bytes a compiled binding may reach, outside its mesh, per byte of ``q``
#: (degree 2, on ``_ctx(comm, 3)``).  Measured: advection (one field)
#: 22.0 at P = 1 and 23.0 at P = 3, elastic (nine fields) 13.9 and 16.3.
#: With the reference face tables kept and int64 lift targets they were
#: 31.1 / 36.7 and 15.9 / 18.8.
BINDING_PER_Q = {"advection": 25, "elastic": 18}


def _ctx(comm, dim):
    """A graded forest with hanging faces (and ghosts at P > 1)."""
    conn = unit_square() if dim == 2 else shell(0.55, 1.0)
    geometry = MultilinearGeometry(conn) if dim == 2 else ShellGeometry(0.55, 1.0)
    forest = Forest.new(conn, comm, level=2 if dim == 2 else 1)
    octs = forest.local
    s = (octs.D.maxlevel - octs.level).astype(np.int64)
    forest.refine(mask=(octs.tree * 7 + (octs.x >> s) * 3 + (octs.y >> s) * 5) % 4 == 0)
    balance(forest)
    forest.partition()
    ghost = build_ghost(forest)
    return MeshContext(forest, ghost, build_mesh(forest, geometry, 2, ghost), comm)


def _model(kind):
    if kind == "advection":
        return AdvectionModel(3, np.array([1.0, 0.5, -0.25]))
    return ElasticModel(3, graded_material)


def _q(ctx, nfields, seed=5):
    rng = np.random.default_rng(seed + ctx.comm.rank)
    return rng.standard_normal((ctx.mesh.nelem_local, ctx.mesh.npts, nfields))


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _reached_arrays(obj, skip):
    """Every ndarray reachable from ``obj`` through attributes, dicts,
    lists and tuples, not descending into the objects in ``skip``."""
    seen, out, stack = {id(s) for s in skip}, [], [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            out.append(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            stack.extend(vars(o).values())
    return out


def binding_bytes(op, ctx) -> int:
    """Bytes of the distinct base arrays ``op`` reaches, except the mesh's."""
    mesh = ctx.mesh
    held = [mesh.coords, mesh.jinv, mesh.detj, mesh.weights]
    roots = {}
    for a in _reached_arrays(op, (ctx.forest, ctx.ghost, mesh, ctx.comm)):
        r = _root(a)
        if r.nbytes and not any(np.shares_memory(r, h) for h in held):
            roots[id(r)] = r
    bases = list(roots.values())
    # Distinct bases never overlap; a view reached without its base counts once.
    for i, a in enumerate(bases):
        assert not any(np.shares_memory(a, b) for b in bases[i + 1 :])
    return sum(a.nbytes for a in bases)


# --- the mesh -------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("P", SIZES)
def test_mesh_holds_coords_inverse_metric_and_detj(dim, P):
    def prog(comm):
        mesh = _ctx(comm, dim).mesh
        arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
        per_elem = sum(a.nbytes for k, a in arrays.items() if k != "weights")
        return sorted(arrays), per_elem, mesh.nelem_total, mesh.npts, arrays["weights"].nbytes

    for names, nbytes, nelem, npts, wbytes in spmd(P, prog):
        assert names == ["coords", "detj", "jinv", "weights"]
        assert nbytes == nelem * npts * (dim + dim * dim + 1) * 8
        assert wbytes == npts * 8


# --- a compiled binding -----------------------------------------------------------


@pytest.mark.parametrize("kind,nfields", [("advection", 1), ("elastic", 9)])
@pytest.mark.parametrize("P", SIZES)
def test_compiled_binding_bytes_follow_the_state(kind, nfields, P):
    def prog(comm):
        ctx = _ctx(comm, 3)
        op = DGOperator(_model(kind), 2).bind(ctx)
        return binding_bytes(op, ctx), _q(ctx, nfields).nbytes

    for held, qbytes in spmd(P, prog):
        if qbytes:
            assert held <= BINDING_PER_Q[kind] * qbytes, (held / qbytes, kind)


@pytest.mark.parametrize("kind,nfields", [("advection", 1), ("elastic", 9)])
@pytest.mark.parametrize("P", SIZES)
def test_compiled_binding_keeps_no_face_tables(kind, nfields, P):
    """The compiled kernel's face tables are gathered at bind from the
    mesh; the reference's own per-face tables are built only when the
    interpreted ``rhs`` first runs, and then give its exact result."""

    def prog(comm):
        ctx = _ctx(comm, 3)
        op = DGOperator(_model(kind), 2).bind(ctx)
        q = _q(ctx, nfields)
        kept = bool(op.solver._normals or op.solver._sjac)
        op.rhs(q, 0.2)
        kept = kept or bool(op.solver._normals or op.solver._sjac)
        got = op.solver.rhs(q, 0.2)
        want = DGOperator(_model(kind), 2, compile=False).bind(ctx).rhs(q, 0.2)
        return kept, len(op.solver._normals), got.tobytes() == want.tobytes()

    for kept, faces, equal in spmd(P, prog):
        assert not kept
        assert faces == 6
        assert equal


@pytest.mark.parametrize("kind", ["advection", "elastic"])
def test_lift_targets_are_int32(kind):
    ctx = _ctx(SerialComm(), 3)
    lt = DGOperator(_model(kind), 2).bind(ctx)._P["lt"]
    assert lt.dtype == np.int32
    assert lt.max() < ctx.mesh.nelem_local * ctx.mesh.npts * _model(kind).nfields


def test_bind_refuses_lift_targets_beyond_int32(monkeypatch):
    ctx = _ctx(SerialComm(), 3)
    monkeypatch.setattr(Mesh, "npts", property(lambda mesh: 2**31))
    with pytest.raises(ValueError, match="int32"):
        DGOperator(_model("advection"), 2).bind(ctx)


# --- rebuilds ---------------------------------------------------------------------


def _spy_on_build_mesh(monkeypatch, module):
    """Patch ``module.build_mesh``: a rank program registers a weak
    reference to its binding under its rank, and every ``build_mesh`` call
    with a ``previous`` mesh records whether that binding is still alive.
    The rank program returns its own records (ranks may be processes)."""
    bindings, alive = {}, {}
    real = module.build_mesh

    def spy(forest, *args, previous=None, **kwargs):
        if previous is not None:
            rank = forest.comm.rank
            alive.setdefault(rank, []).append(bindings[rank]() is not None)
        return real(forest, *args, previous=previous, **kwargs)

    monkeypatch.setattr(module, "build_mesh", spy)
    return bindings, alive


@pytest.mark.parametrize("P", SIZES)
def test_advection_rebuild_frees_the_outgoing_binding_first(monkeypatch, P):
    bindings, alive = _spy_on_build_mesh(monkeypatch, advection_driver)

    def prog(comm):
        app = AdvectionRun(comm, AdvectionConfig(degree=2, max_level=2, adapt_every=2))
        for _ in range(2):
            bindings[comm.rank] = weakref.ref(app.solver)
            app.run(2)  # two steps, then adapt() rebuilds from the outgoing mesh
        return alive.get(comm.rank)

    assert spmd(P, prog) == [[False, False]] * P


@pytest.mark.parametrize("P", SIZES)
def test_seismic_rebuild_frees_the_outgoing_binding_first(monkeypatch, P):
    bindings, alive = _spy_on_build_mesh(monkeypatch, dgea_driver)
    cfg = SeismicConfig(
        degree=2, source_frequency=8.0, base_level=1, max_level=3, points_per_wavelength=1.0
    )

    def prog(comm):
        run = SeismicRun(comm, cfg)
        # A resolved energy blob at the source, as test_dgea_amr.py plants.
        x = run.mesh.coords[: run.mesh.nelem_local]
        blob = np.exp(-40 * ((x - np.asarray(cfg.source_position)) ** 2).sum(-1))
        run.q[..., 3:6] = blob[..., None]
        bindings[comm.rank] = weakref.ref(run.solver)
        run.adapt_to_wavefront(refine_threshold=0.02)
        return run.adapt_count, alive.get(comm.rank)

    assert spmd(P, prog) == [(1, [False])] * P
