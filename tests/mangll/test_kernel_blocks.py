"""Blocked, buffer-planned emission: block edges, the workspace, allocations.

The compiled kernels cut their element loop (and every face batch
larger than a block) into blocks whose temporaries live in one
per-binding workspace.  These tests walk the edges that adds: a mesh
smaller than a block, an exact multiple, a ragged last block, a rank
with no elements at all, batches cut into several chunks — and the
two promises the workspace must not break: ``rhs`` still returns a
fresh array nobody else holds, and two bindings never share scratch.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.dgea.elastic import ElasticModel
from repro.mangll import compiler as kc
from repro.mangll.compiler import emit
from repro.mangll.compiler.cache import reset_default_cache
from repro.mangll.compiler.emit import FACE_K
from repro.mangll.geometry import BrickGeometry, ShellGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.op import DGOperator, MeshContext
from repro.p4est.balance import balance
from repro.p4est.builders import brick_3d, shell
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd

DEGREE = 2
TOL = 1e-13  # the elastic kind's contract, relative to max |rhs|


def graded_material(x):
    """A smooth heterogeneous solid: every coefficient table varies
    (2-periodic, so the periodic brick stays one medium)."""
    s = np.pi * (x[..., 0] + x[..., 1] - x[..., 2])
    rho = 1.0 + 0.1 * np.sin(s)
    mu = 1.5 + 0.2 * np.cos(2.0 * s)
    lam = 2.0 + 0.3 * np.sin(3.0 * s)
    return rho, lam, mu


def shell_ctx(comm, lopsided=False):
    """38 elements of the shell with hanging faces; ``lopsided`` piles
    them on the first rank and leaves the last ones empty."""
    forest = Forest.new(shell(0.55, 1.0), comm, level=0)
    forest.refine(callback=lambda o: (o.tree == 3) | (o.tree == 4))
    balance(forest)
    if lopsided:
        n = len(forest.local)
        w = np.full(n, 1e-9)
        w[np.arange(n) + comm.exscan(n) == forest.global_count - 1] = 1.0
        forest.partition(weights=w)
    else:
        forest.partition()
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, ShellGeometry(0.55, 1.0), DEGREE, ghost)
    return MeshContext(forest, ghost, mesh, comm)


def periodic_ctx(level=0):
    """A periodic brick with hanging faces: no boundary batch, so every
    region of the elastic kernel is a planned one."""
    comm = SerialComm()
    forest = Forest.new(brick_3d(2, 2, 2, True, True, True), comm, level=level)
    forest.refine(callback=lambda o: o.tree == 0)
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, BrickGeometry(2, 2, 2, dim=3), DEGREE, ghost)
    return MeshContext(forest, ghost, mesh, comm)


def random_q(ctx, seed=3):
    shape = (ctx.mesh.nelem_local, ctx.mesh.npts, 9)
    return np.random.default_rng(seed + ctx.comm.rank).standard_normal(shape)


def mismatch(ctx, q, t=0.3):
    """(max |compiled - interpreted|, max |interpreted|) on this rank."""
    model = ElasticModel(3, graded_material)
    got = DGOperator(model, DEGREE).bind(ctx).rhs(q, t)
    want = DGOperator(model, DEGREE, compile=False).bind(ctx).rhs(q, t)
    assert got.shape == want.shape == q.shape
    if q.size == 0:
        return 0.0, 0.0
    return float(np.abs(got - want).max()), float(np.abs(want).max())


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


@pytest.mark.parametrize(
    "rows",
    [50, 38, 19, 7, 1],
    ids=["below-one-block", "one-block", "exact-multiple", "ragged-tail", "one-row"],
)
def test_elastic_matches_reference_at_every_block_edge(block_rows, rows):
    ctx = shell_ctx(SerialComm())
    assert ctx.mesh.nelem_local == 38
    block_rows(rows)
    op = DGOperator(ElasticModel(3, graded_material), DEGREE).bind(ctx)
    # The 64 paired conforming faces are one merged batch: a batch larger
    # than a block enters the kernel as consecutive chunks.
    pairs = [B["n"] for B in op._P["fb"] if B["k"] == FACE_K["face_pair"]]
    assert sum(pairs) == 64 and max(pairs) == min(rows, 64)
    err, scale = mismatch(ctx, random_q(ctx))
    assert err <= TOL * scale


def _rank_mismatch(comm):
    ctx = shell_ctx(comm, lopsided=True)
    err, scale = mismatch(ctx, random_q(ctx))
    return ctx.mesh.nelem_local, err, scale


@pytest.mark.parametrize("P", [3, 5])
def test_elastic_with_empty_ranks(P):
    out = spmd(P, _rank_mismatch)
    counts = [n for n, _, _ in out]
    assert sum(counts) == 38 and 0 in counts and 1 in counts
    scale = max(s for _, _, s in out)
    assert all(err <= TOL * scale for _, err, _ in out)


def test_rhs_returns_a_fresh_array_each_call():
    """``lsrk45_step`` scribbles on what ``rhs`` returns."""
    ctx = periodic_ctx()
    op = DGOperator(ElasticModel(3, graded_material), DEGREE).bind(ctx)
    q = random_q(ctx)
    first = op.rhs(q, 0.0)
    kept = first.copy()
    second = op.rhs(2.0 * q, 0.1)
    assert first.base is None and first.flags.writeable
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, op._P["ws"])
    assert not np.shares_memory(first, q)
    assert np.array_equal(first, kept)  # the second call left it alone
    assert np.array_equal(op.rhs(q, 0.0), kept)  # and the workspace carries no state


def test_two_bindings_share_no_workspace():
    ctx = periodic_ctx()
    model = ElasticModel(3, graded_material)
    a = DGOperator(model, DEGREE).bind(ctx)
    b = DGOperator(model, DEGREE).bind(ctx)
    assert a._P["ws"].size > 0
    assert not np.shares_memory(a._P["ws"], b._P["ws"])
    qa, qb = random_q(ctx, 1), random_q(ctx, 2)
    alone = a.rhs(qa, 0.0)
    b.rhs(qb, 0.0)
    assert np.array_equal(a.rhs(qa, 0.0), alone)


def test_warm_rhs_allocates_only_its_result():
    """Every block-sized temporary is a workspace slot: beyond the
    returned array, a warm call's peak is a constant — NumPy's own
    fixed-size ufunc buffer (the broadcast ``r *= lift``) and the index
    bookkeeping of the fancy stores.  One field-sized temporary, or a
    few planes of a block, would exceed it."""
    ctx = periodic_ctx(level=1)
    assert ctx.mesh.nelem_local == 120
    op = DGOperator(ElasticModel(3, graded_material), DEGREE).bind(ctx)
    regions = kc.compile_dg_rhs(3, DEGREE, 9, "elastic").analyses["kernel"].regions
    assert [name for name, rc in regions.items() if rc.rows is None] == ["tail"]
    q = random_q(ctx)
    op.rhs(q, 0.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        r = op.rhs(q, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.nbytes == 120 * 27 * 9 * 8
    assert peak - before <= r.nbytes + 8 * np.getbufsize() + 16 * 1024
