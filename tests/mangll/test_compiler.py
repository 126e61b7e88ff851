"""Tests for the mangll kernel compiler and the ``mangll.op`` frontend.

The contract under test is strict: for every specialization the
compiled kernel must return **bit-identical** results to the
interpreted reference (``np.array_equal``, no tolerance), because the
compiler only applies transforms proven to preserve IEEE semantics
(see docs/KERNELS.md).  On top of that the suite pins the cache
behaviour (memory/disk hits, stale-fingerprint regeneration, racing
writers), the communication-freedom guard, and that ``compile=`` on the
spec is the only execution-mode switch.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.mangll import compiler as kc
from repro.mangll.compiler import (
    CompileError,
    KernelCache,
    assert_communication_free,
)
from repro.mangll.compiler.cache import fingerprint
from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.transfer import transfer_nodal_fields
from repro.p4est.balance import balance
from repro.p4est.builders import rotcubes, unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import RunConfig, SerialComm
from repro.parallel.collectives import collective_spec

CONNS = {2: unit_square, 3: unit_cube}


def make_ctx(dim, degree, *, conn_fn=None, seed=0):
    """A small adapted (hanging-face) mesh context on one rank."""
    comm = SerialComm()
    conn = (conn_fn or CONNS[dim])()
    forest = Forest.new(conn, comm, level=1)
    rng = np.random.default_rng(seed)
    forest.refine(mask=rng.random(len(forest.local)) < 0.4)
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), degree, ghost)
    return MeshContext(forest, ghost, mesh, comm)


def swirl(x):
    """A position-dependent velocity: the hoisted table is not constant."""
    v = [1.0 + 0.3 * x[..., 1], 0.5 - 0.2 * x[..., 0], 0.25 + 0.1 * x[..., 0]]
    return np.stack(v[: x.shape[-1]], axis=-1)


def make_model(name, dim):
    if name == "advection":
        return AdvectionModel(dim, np.linspace(0.5, 1.0, dim))
    assert name == "advection_field"
    return AdvectionModel(dim, swirl, inflow=0.25)


def random_q(ctx, model, seed=7):
    rng = np.random.default_rng(seed)
    nl = ctx.mesh.nelem_local
    return rng.standard_normal((nl, ctx.mesh.npts, model.nfields))


# --- dG RHS: compiled == interpreted, bit for bit ---------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("model_name", ["advection", "advection_field"])
def test_dg_rhs_bit_identical(dim, degree, model_name):
    if dim == 3 and degree == 5:
        ctx = make_ctx(dim, degree, seed=2)  # keep the 216-point mesh small
    else:
        ctx = make_ctx(dim, degree)
    model = make_model(model_name, dim)
    compiled = DGOperator(model, degree).bind(ctx)
    interp = DGOperator(model, degree, compile=False).bind(ctx)
    assert compiled._kernel is not None and interp._kernel is None
    q = random_q(ctx, model)
    for t in (0.0, 0.37):
        assert np.array_equal(compiled.rhs(q, t), interp.rhs(q, t))
    assert compiled.stable_dt(q) == interp.stable_dt(q)
    assert np.array_equal(
        compiled.integrate_quantity(q), interp.integrate_quantity(q)
    )


def test_dg_rhs_bit_identical_rotated_trees():
    """Rotated inter-tree faces (the hard orientation path) stay exact."""
    ctx = make_ctx(3, 3, conn_fn=rotcubes, seed=4)
    model = make_model("advection_field", 3)
    q = random_q(ctx, model)
    got = DGOperator(model, 3).bind(ctx).rhs(q, 0.2)
    want = DGOperator(model, 3, compile=False).bind(ctx).rhs(q, 0.2)
    assert np.array_equal(got, want)


class Wrapped:
    """A duck-typed advection model whose class declares no lowering kind."""

    def __init__(self, dim):
        self._m = make_model("advection_field", dim)
        self.dim, self.nfields = dim, 1

    def __getattr__(self, name):
        return getattr(self._m, name)


class Steered(AdvectionModel):
    """An advection subclass with its own physics and no ``lowering_kind``
    of its own: lowering the inherited kind would ignore the override."""

    def boundary_state(self, qm, n, x, t):
        return qm


def test_compile_rejects_a_model_without_its_own_lowering_kind():
    """Only a model whose own class declares a kind compiles; the rest
    run interpreted, and ``compile=False`` is the way to ask for that."""
    dim = 2
    ctx = make_ctx(dim, 2)
    wrapped = Wrapped(dim)
    with pytest.raises(TypeError, match="compile=False"):
        DGOperator(wrapped, 2).bind(ctx)
    q = random_q(ctx, wrapped)
    want = DGOperator(wrapped._m, 2, compile=False).bind(ctx).rhs(q, 0.1)
    assert np.array_equal(DGOperator(wrapped, 2, compile=False).bind(ctx).rhs(q, 0.1), want)
    steered = Steered(dim, np.linspace(0.5, 1.0, dim))
    with pytest.raises(TypeError, match="Steered"):
        DGOperator(steered, 2).bind(ctx)
    DGOperator(steered, 2, compile=False).bind(ctx).rhs(q, 0.1)


@pytest.mark.parametrize("bc", ["free", "mirror"])
@pytest.mark.parametrize("dim", [2, 3])
def test_dg_elastic_model_tolerance_and_material_hoisted(dim, bc):
    """The elastic kind uses the tolerance-validated fast lowering
    (paired interfaces, the boundary condition in the IR, BLAS mortar
    products): the compiled RHS agrees with the reference to near
    machine precision under either boundary condition, and the material
    field is evaluated once at bind time (zero calls on reapply, while
    the reference re-evaluates every application)."""
    from repro.apps.dgea.elastic import ElasticModel, homogeneous_material
    from repro.mangll.compiler.emit import FACE_K
    from repro.mangll.compiler.lower import ELASTIC_BC_REGION

    ctx = make_ctx(dim, 3)
    calls = {"n": 0}
    base = homogeneous_material(1.0, 3.0, 1.5)

    def counting_material(x):
        calls["n"] += 1
        return base(x)

    model = ElasticModel(dim, counting_material, bc=bc)
    assert kc.model_kind(model) == "elastic"
    compiled = DGOperator(model, 3).bind(ctx)
    interp = DGOperator(model, 3, compile=False).bind(ctx)
    # Local-local interfaces are paired; boundary rows run in their
    # condition's region.
    kinds = {B["k"] for B in compiled._P["fb"]}
    assert {FACE_K["face_pair"], FACE_K["face_hang"], FACE_K[ELASTIC_BC_REGION[bc]]} <= kinds
    q = random_q(ctx, model)
    for t in (0.0, 0.37):
        rc, ri = compiled.rhs(q, t), interp.rhs(q, t)
        assert np.abs(rc - ri).max() <= 1e-13 * np.abs(ri).max()
    warm = calls["n"]
    compiled.rhs(q, 0.2)
    assert calls["n"] == warm  # hoisted: the kernel never calls the model
    interp.rhs(q, 0.2)
    assert calls["n"] > warm  # the reference re-evaluates every time


def test_permutation_rows():
    """Conforming mortar transfers are detected as permutations; any
    genuine interpolation (or non-square) matrix is rejected."""
    from repro.mangll.compiler.lower import permutation_rows

    eye = np.eye(4)
    assert np.array_equal(permutation_rows(eye), np.arange(4))
    p = eye[[2, 0, 3, 1]]
    rows = permutation_rows(p)
    v = np.arange(4.0)
    assert np.array_equal(p @ v, v[rows])
    assert permutation_rows(np.full((4, 4), 0.25)) is None
    assert permutation_rows(np.ones((2, 4))) is None
    half = np.eye(4)
    half[0, 0] = 0.5
    half[0, 1] = 0.5
    assert permutation_rows(half) is None


# --- field transfer ---------------------------------------------------------


def test_transfer_rejects_bad_shape():
    ctx = make_ctx(2, 2)
    old = ctx.forest.local.copy()
    new = Forest.new(unit_square(), SerialComm(), level=1).local
    bad = np.zeros((ctx.mesh.nelem_local + 1, ctx.mesh.npts))
    with pytest.raises(ValueError, match="q_old shape"):
        transfer_nodal_fields(old, bad, new, 2)


# --- kernel cache -----------------------------------------------------------


def test_cache_memory_hits_and_misses(tmp_path):
    cache = KernelCache(str(tmp_path))
    k1 = kc.compile_dg_rhs(2, 3, 1, "advection", cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    k2 = kc.compile_dg_rhs(2, 3, 1, "advection", cache=cache)
    assert cache.hits == 1 and cache.misses == 1
    assert k2.fn("kernel") is k1.fn("kernel")  # same exec'd module
    kc.compile_dg_rhs(2, 4, 1, "advection", cache=cache)  # new key
    assert cache.misses == 2


def test_cache_disk_roundtrip(tmp_path):
    first = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 3, 1, "advection", cache=first)
    path = first.path_for(kc.dg_cache_key(2, 3, 1, "advection"))
    assert path.exists() and path.read_text().startswith("# repro-kernel v")
    # A fresh cache (new process, same dir) loads from disk, not build.
    second = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 3, 1, "advection", cache=second)
    assert second.disk_hits == 1 and second.misses == 0


def test_cache_stale_fingerprint_regenerates(tmp_path):
    cache = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 2, 1, "advection", cache=cache)
    path = cache.path_for(kc.dg_cache_key(2, 2, 1, "advection"))
    path.write_text(path.read_text() + "\n# hand edit\n")  # corrupt body
    fresh = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 2, 1, "advection", cache=fresh)
    assert fresh.stale == 1 and fresh.misses == 1
    # The regenerated entry is valid again.
    again = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 2, 1, "advection", cache=again)
    assert again.disk_hits == 1 and again.stale == 0


def test_cache_rejects_an_entry_from_another_emitter(tmp_path, monkeypatch):
    """The forgotten-``IR_VERSION``-bump case: a self-consistent entry
    written by *other* compiler source is stale, gets rebuilt, and its
    body never runs."""
    from repro.mangll.compiler import cache as cache_mod

    key = kc.dg_cache_key(2, 2, 1, "advection")
    writer = KernelCache(str(tmp_path))
    monkeypatch.setattr(cache_mod, "EMITTER_DIGEST", "another-emitter")
    # What that emitter published: a valid header over a body that must
    # not be exec'd here.
    poison = "raise AssertionError('a kernel from another emitter was exec-ed')\n"
    writer._publish(key, poison)
    assert writer._load_disk(key) == poison  # consistent under its own digest
    monkeypatch.undo()

    reader = KernelCache(str(tmp_path))
    compiled = kc.compile_dg_rhs(2, 2, 1, "advection", cache=reader)
    assert reader.stale == 1 and reader.misses == 1 and reader.disk_hits == 0
    assert callable(compiled.fn("kernel"))
    # The rebuilt entry replaced it on disk.
    again = KernelCache(str(tmp_path))
    kc.compile_dg_rhs(2, 2, 1, "advection", cache=again)
    assert again.disk_hits == 1 and again.stale == 0


def test_cache_rebuilds_a_truncated_entry_without_executing_it(tmp_path, monkeypatch):
    """An entry with an intact header over a body cut mid-line (a torn
    copy, a full disk) is stale: it is rebuilt and republished whole, and
    the cut body never reaches ``_exec_kernel_source``."""
    from repro.mangll.compiler import cache as cache_mod

    kc.compile_dg_rhs(2, 3, 1, "advection", cache=KernelCache(str(tmp_path)))
    path = KernelCache(str(tmp_path)).path_for(kc.dg_cache_key(2, 3, 1, "advection"))
    head, _, body = path.read_text().partition("\n")
    path.write_text(head + "\n" + body[: body.index("\n", len(body) // 2) - 5])
    executed = []
    real = cache_mod._exec_kernel_source
    monkeypatch.setattr(
        cache_mod, "_exec_kernel_source", lambda b, k: executed.append(b) or real(b, k)
    )
    fresh = KernelCache(str(tmp_path))
    compiled = kc.compile_dg_rhs(2, 3, 1, "advection", cache=fresh)
    assert fresh.stale == 1 and fresh.misses == 1 and fresh.disk_hits == 0
    assert executed == [body] and callable(compiled.fn("kernel"))
    assert path.read_text() == head + "\n" + body


def test_cache_memory_only_mode():
    cache = KernelCache(None)
    compiled = kc.compile_dg_rhs(2, 2, 1, "advection", cache=cache)
    assert cache.path_for(compiled.key) is None
    assert cache.misses == 1
    kc.compile_dg_rhs(2, 2, 1, "advection", cache=cache)
    assert cache.hits == 1


def test_cache_concurrent_writers_publish_complete_files(tmp_path):
    """Racing writers on one key each publish atomically; the survivor
    parses clean (no torn header/body) and fingerprints correctly."""
    results, errs = [], []

    def worker():
        try:
            cache = KernelCache(str(tmp_path))  # one cache per "process"
            results.append(kc.compile_dg_rhs(2, 3, 1, "advection", cache=cache))
        except Exception as e:  # pragma: no cover - diagnostic
            errs.append(e)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    path = KernelCache(str(tmp_path)).path_for(kc.dg_cache_key(2, 3, 1, "advection"))
    head, _, body = path.read_text().partition("\n")
    assert fingerprint(kc.dg_cache_key(2, 3, 1, "advection"), body) in head
    assert not list(tmp_path.glob(".tmp-*"))  # no leaked temp files


def test_generated_source_is_communication_free(tmp_path):
    cache = KernelCache(str(tmp_path))
    for compiled in (
        kc.compile_dg_rhs(2, 3, 1, "advection", cache=cache),
        kc.compile_dg_rhs(2, 3, 5, "elastic", cache=cache),
        kc.compile_dg_rhs(3, 2, 1, "advection", cache=cache),
    ):
        src = cache.path_for(compiled.key).read_text().partition("\n")[2]
        assert_communication_free(src, compiled.key)  # must not raise


def test_communication_guard_rejects_comm_calls():
    for bad in (
        "def kernel(q, comm):\n    return comm.allreduce(q.sum())\n",
        "def kernel(q, f):\n    f.exchange(q)\n    return q\n",
        "def kernel(q):\n    balance(q)\n    return q\n",
    ):
        with pytest.raises(CompileError, match="communication-free"):
            assert_communication_free(bad, "test-key")
    assert_communication_free("def kernel(q):\n    return q * 2\n", "ok-key")


def test_a_kernel_model_call_or_an_unplanned_region_is_a_compile_error():
    """A model query must be bind-stage, and ``main`` must be planned:
    neither falls back to a kernel that calls the model or runs plain."""
    from repro.mangll.compiler.emit import analyze
    from repro.mangll.compiler.ir import Graph

    g = Graph()
    q = g.arg("q_local", ("e", 4, 1))
    v = g.extern("velocity", q, like="np.ones({0}.shape)")
    g.ret(g.pw("{0} * {1}", q, v))
    with pytest.raises(CompileError, match="velocity"):
        analyze(g)
    g = Graph()
    g.ret(g.pw("2.0 * {0}", g.arg("q_local")))  # no declared shape: no blocks
    with pytest.raises(CompileError, match="'main'"):
        analyze(g)


# --- op frontend surface ----------------------------------------------------


def test_op_frontend_does_not_warn():
    ctx = make_ctx(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        DGOperator(make_model("advection", 2), 2).bind(ctx)
        DGOperator(make_model("advection", 2), 2, compile=False).bind(ctx)


def test_bound_dg_operator_is_collective_stamped():
    ctx = make_ctx(2, 2)
    op = DGOperator(make_model("advection", 2), 2).bind(ctx)
    for name in ("rhs", "stable_dt", "integrate_quantity"):
        assert collective_spec(getattr(op, name)) is not None
        assert collective_spec(getattr(op.solver, name)) is not None


def test_dg_operator_exposes_kernel_key():
    ctx = make_ctx(2, 3)
    op = DGOperator(make_model("advection", 2), 3).bind(ctx)
    assert op.kernel_key == "dg_rhs-d2-p3-f1-advection"
    assert op.dim == 2 and op.degree == 3


def test_dg_operator_rejects_degree_mismatch():
    ctx = make_ctx(2, 2)
    with pytest.raises(ValueError, match="degree"):
        DGOperator(make_model("advection", 2), 3).bind(ctx)


def test_run_config_compile_flag_validation():
    # The spec's ``compile=`` is the one switch; RunConfig has no such field.
    for value in ("yes", True):
        with pytest.raises(TypeError, match="compile"):
            RunConfig(size=1, compile=value)


def test_compiled_rhs_matches_interpreted_across_ranks():
    """The SPMD path (real ghost exchange, 3 ranks) stays bit-exact."""
    from tests.parallel.helpers import run as spmd

    def prog(comm):
        conn = unit_square()
        forest = Forest.new(conn, comm, level=2)
        forest.refine(
            callback=lambda o: (o.x < o.D.root_len // 2) & (o.level < 3),
            recursive=True,
        )
        forest.partition()
        balance(forest)
        ghost = build_ghost(forest)
        mesh = build_mesh(forest, MultilinearGeometry(conn), 3, ghost)
        ctx = MeshContext(forest, ghost, mesh, comm)
        model = AdvectionModel(2, swirl, inflow=0.25)
        nl = mesh.nelem_local
        x = mesh.coords[:nl]
        q = np.zeros((nl, mesh.npts, model.nfields))
        q[..., 0] = np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1])
        got = DGOperator(model, 3).bind(ctx).rhs(q, 0.1)
        want = DGOperator(model, 3, compile=False).bind(ctx).rhs(q, 0.1)
        return bool(np.array_equal(got, want))

    assert all(spmd(3, prog))
