"""Merged face batches and the ordered lift of the bit-exact dG kind.

The advection kernel runs its face term on merged batches — every
mortar of one region that shares a transfer matrix, and all boundary
mortars — and deposits each lifted row at its position in
``space.batches`` order; the tail applies them all with one
``np.subtract.at``.  These tests pin what that rests on: the batch count
follows from the mesh, the flat gather has the reference gather's
strides, every face row lands exactly once, and compiled equals the
interpreted reference bit for bit — signed zeros included — on periodic
bricks, with ghosts, with an empty rank and at forced block cuts.
"""

import numpy as np
import pytest

from repro.mangll import compiler as kc
from repro.mangll.compiler import emit
from repro.mangll.compiler.cache import reset_default_cache
from repro.mangll.compiler.emit import FACE_K
from repro.mangll.compiler.ir import eval_template
from repro.mangll.compiler.lower import KIND_REGION, lower_dg_rhs
from repro.mangll.geometry import BrickGeometry, MultilinearGeometry
from repro.mangll.mesh import build_mesh, face_node_indices
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, rotcubes
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.mangll.test_kernel_blocks import shell_ctx
from tests.parallel.helpers import run as spmd


MODELS = {
    "advection": lambda dim: AdvectionModel(dim, np.linspace(0.5, 1.0, dim)[::-1]),
}


def bits(a):
    """The array's IEEE bit patterns (``np.array_equal`` ignores the zero sign)."""
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(ctx, model, q, t=0.3):
    degree = ctx.mesh.degree
    got = DGOperator(model, degree).bind(ctx).rhs(q, t)
    want = DGOperator(model, degree, compile=False).bind(ctx).rhs(q, t)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def brick_ctx(level, refine):
    """A 2 x 2 periodic brick: every element meets the same neighbour
    across two opposite faces."""
    conn = brick_2d(2, 2, True, True)
    forest = Forest.new(conn, SerialComm(), level=level)
    if refine:
        forest.refine(callback=lambda o: o.tree == 0)
        balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, BrickGeometry(2, 2), 2, ghost)
    return MeshContext(forest, ghost, mesh, forest.comm)


def rotcubes_ctx(degree=2):
    comm = SerialComm()
    conn = rotcubes()
    forest = Forest.new(conn, comm, level=1)
    forest.refine(mask=np.random.default_rng(4).random(len(forest.local)) < 0.3)
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), degree, ghost)
    return MeshContext(forest, ghost, mesh, comm)


def leaf_id(an, name):
    """Canonical id of the batch leaf called ``name`` (CSE shares it)."""
    ids = {an.plan.canon(n.id) for n in an.graph.nodes
           if n.op == "barg" and n.attr("name") == name}
    assert len(ids) == 1
    return ids.pop()


def face_rows(op, name):
    """``B[name]`` of every face chunk the kernel will see, in order."""
    an = kc.compile_dg_rhs(op.dim, op.degree, op.model.nfields, kc.model_kind(op.model))
    key = f"v{leaf_id(an.analyses['kernel'], name)}"
    return [B[key] for B in op._P["fb"]]


# --- the merge ---------------------------------------------------------------


def face_groups(space):
    """Rows per (region, transfer) group — a one-row mortar batch alone."""
    sizes = {}
    for b, batch in enumerate(space.batches):
        region, tr = KIND_REGION[batch.kind], batch.transfer
        key = (region,) if tr is None else (region, tr.tobytes(), len(batch.eminus) == 1 and b)
        sizes[key] = sizes.get(key, 0) + len(batch.eminus)
    return sizes


def expected_face_batches(op):
    """Each group cut into as many chunks as its region's block needs."""
    an = kc.compile_dg_rhs(op.dim, op.degree, op.model.nfields, kc.model_kind(op.model))
    regions = an.analyses["kernel"].regions
    return sum(-(-n // regions[key[0]].rows) for key, n in face_groups(op.space).items())


@pytest.mark.parametrize("ctx_fn", [rotcubes_ctx, lambda: shell_ctx(SerialComm())],
                         ids=["rotcubes", "shell"])
def test_merged_batch_count_follows_the_mesh(ctx_fn):
    ctx = ctx_fn()
    op = DGOperator(MODELS["advection"](ctx.mesh.dim), ctx.mesh.degree).bind(ctx)
    fb = op._P["fb"]
    assert len(fb) == expected_face_batches(op)
    assert len(fb) < len(op.space.batches)
    assert {B["k"] for B in fb} <= {FACE_K[r] for r in ("face_cf", "face_b", "face_coarse")}
    assert not any(k.startswith("u") for B in fb for k in B)  # no per-batch scatter flag


def test_every_face_row_is_lifted_once_in_batch_order():
    ctx = rotcubes_ctx()
    op = DGOperator(MODELS["advection"](3), 2).bind(ctx)
    pos = np.concatenate(face_rows(op, "pos"))
    total = sum(len(b.eminus) for b in op.space.batches)
    assert np.array_equal(np.sort(pos), np.arange(total))
    # The lift targets walk the reference's batches, rows, face nodes, fields.
    sp, nf = op.space, 1
    want = []
    for batch in sp.batches:
        nodes = batch.eminus[:, None] * sp.mesh.npts + face_node_indices(3, sp.nq, batch.fminus)
        want.append((nodes[..., None] * nf + np.arange(nf)).reshape(-1))
    assert np.array_equal(op._P["lt"], np.concatenate(want))
    assert op._P["lb"].shape == (total, sp.nfp, nf)


@pytest.mark.parametrize("nf", [1, 3])
def test_flat_take_has_the_two_step_gather_strides(nf):
    """The lowered trace — a take over the node-major table, viewed back —
    returns ``q_all[em][:, fidx]``'s shape, strides and values, for a
    whole batch and for a chunk of it."""
    dim, degree = 3, 3
    g = lower_dg_rhs(dim, degree, nf, "advection")
    (expr,) = {n.attr("expr") for n in g.nodes if n.op == "pw" and "np.take" in n.attr("expr")}
    npts, nq = (degree + 1) ** dim, degree + 1
    rng = np.random.default_rng(nf)
    q_all = rng.standard_normal((40, npts, nf))
    em = rng.integers(0, 40, 23)
    fidx = face_node_indices(dim, nq, 3)
    gm = np.ascontiguousarray((em[:, None] * npts + fidx).T).T  # as bind stores it
    for rows in (slice(None), slice(5, 17)):
        want = q_all[em[rows]][:, fidx]
        got = eval_template(expr, [q_all, gm[rows]])
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)


def test_kernels_have_one_lift_and_no_per_batch_scatter():
    for dim in (2, 3):
        an = kc.compile_dg_rhs(dim, 2, 1, "advection").analyses["kernel"]
        src = emit.Emitter(an).emit("kernel", ("q_local", "q_all", "P"))
        assert src.count(".at(") == 1 and "np.subtract.at(" in src, dim
        assert 'B["u' not in src, dim


# --- compiled == reference, bit for bit --------------------------------------


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("level,refine", [(0, False), (1, True)], ids=["conforming", "hanging"])
def test_periodic_brick_bit_identical(kind, level, refine):
    ctx = brick_ctx(level, refine)
    model = MODELS[kind](2)
    op = DGOperator(model, 2).bind(ctx)
    # Merged batches repeat element rows, and pair the same two elements
    # across two faces.
    npts = ctx.mesh.npts
    elems = [gm[:, 0] // npts for gm in face_rows(op, "gm")]
    assert any(len(np.unique(e)) < len(e) for e in elems)
    q = np.random.default_rng(level).standard_normal((ctx.mesh.nelem_local, npts, model.nfields))
    assert_same_bits(ctx, model, q)


def _rank_bits(comm, kind):
    ctx = shell_ctx(comm, lopsided=True)
    model = MODELS[kind](3)
    nl = ctx.mesh.nelem_local
    q = np.random.default_rng(comm.rank).standard_normal((nl, ctx.mesh.npts, model.nfields))
    op = DGOperator(model, 2).bind(ctx)
    got = op.rhs(q, 0.2)
    want = DGOperator(model, 2, compile=False).bind(ctx).rhs(q, 0.2)
    ghost_rows = sum(int((b.eplus >= nl).sum()) for b in op.space.batches)
    return nl, ghost_rows, bool(np.array_equal(bits(got), bits(want)))


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("P", [3, 5])
def test_ghosts_and_an_empty_rank_bit_identical(kind, P):
    out = spmd(P, _rank_bits, kind)
    counts = [n for n, _, _ in out]
    assert sum(counts) == 38 and 0 in counts
    assert sum(g for _, g, _ in out) > 0
    assert all(same for _, _, same in out)


class _RecordingLifts:
    """Stands in for ``np`` inside the reference: records every face lift
    ``np.add.at(r, idx, -contrib)`` as ``contrib`` (negation is exact)."""

    def __init__(self):
        self.rows = []
        outer = self

        class add:  # noqa: N801 - shadows np.add
            @staticmethod
            def at(r, idx, v):
                outer.rows.append(-v)
                np.add.at(r, idx, v)

        self.add = add

    def __getattr__(self, name):
        return getattr(np, name)


def test_signed_zeros_survive_the_mortars(monkeypatch):
    """Exact +0.0 / -0.0 regions around a front.  ``c_einsum`` sums a
    permutation mortar from +0.0, so a -0.0 trace comes out +0.0, and the
    advection flux of a zero state carries that sign into its lift (the
    zero's sign cannot reach ``r`` itself: it starts at +0.0, which absorbs
    a zero of either sign).  So beyond the result, the lift buffer must
    hold the reference's face contributions bit for bit: a shortcut that
    folds permutation transfers into the gather keeps the -0.0 and fails."""
    from repro.mangll import dg

    ctx = rotcubes_ctx()
    x = ctx.mesh.coords[: ctx.mesh.nelem_local]
    mid = np.median(x[..., 0])
    model = MODELS["advection"](3)
    q = np.where(x[..., :1] < mid, 0.0, -0.0)
    front = np.abs(x[..., 0] - mid) < 0.1
    q[front] = np.cos(3.0 * x[front][:, 1:2])
    assert np.signbit(q).any() and (q == 0).any() and (q != 0).any()
    op = DGOperator(model, 2).bind(ctx)
    got = op.rhs(q, 0.0)
    recording = _RecordingLifts()
    monkeypatch.setattr(dg, "np", recording)
    want = DGOperator(model, 2, compile=False).bind(ctx).rhs(q, 0.0)
    monkeypatch.undo()
    assert np.array_equal(bits(got), bits(want))
    lifts = np.concatenate(recording.rows)
    assert np.signbit(lifts[lifts == 0]).any()
    assert np.array_equal(bits(op._P["lb"]), bits(lifts))


# --- block cuts --------------------------------------------------------------


@pytest.fixture
def block_rows(monkeypatch, tmp_path):
    """Compile with a chosen block size, in a kernel cache of its own."""

    def use(rows):
        monkeypatch.setattr(emit, "block_rows", lambda peak_units: rows)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / f"rows{rows}"))
        reset_default_cache()
        kc._dg_analysis.cache_clear()

    yield use
    monkeypatch.undo()
    reset_default_cache()
    kc._dg_analysis.cache_clear()


@pytest.mark.parametrize("rows", [3, 4, 7])
def test_small_blocks_bit_identical_and_no_lone_row_chunks(block_rows, rows):
    """A merged batch cut into many chunks stays exact; no chunk of a
    longer batch is a single row (the mortar einsum sums one row in
    another order)."""
    block_rows(rows)
    ctx = rotcubes_ctx()
    model = MODELS["advection"](3)
    op = DGOperator(model, 2).bind(ctx)
    sizes = [B["n"] for B in op._P["fb"]]
    assert max(sizes) == rows and len(sizes) == expected_face_batches(op)
    assert sizes.count(1) == list(face_groups(op.space).values()).count(1)
    q = np.random.default_rng(9).standard_normal((ctx.mesh.nelem_local, ctx.mesh.npts, 1))
    assert_same_bits(ctx, model, q)
