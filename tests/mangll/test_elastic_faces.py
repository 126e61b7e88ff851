"""The elastic kind's face form: interfaces paired, the boundary in the IR.

Every interface whose two sides are both local is evaluated once — a
conforming face from its lower-numbered element, a 2:1 face from its
fine side — and deposits its flux to both elements with opposite signs;
faces with a ghost partner stay one-sided.  The free-surface and mirror
boundary conditions are lowered into the Riemann solution, so the
compiled kernel never calls the model.  Every face region deposits into
the lift buffer and the tail lifts it once, like the bit-exact kinds.
"""

import itertools

import numpy as np
import pytest

from repro.apps.dgea.elastic import ElasticModel
from repro.mangll import compiler as kc
from repro.mangll.compiler import emit
from repro.mangll.compiler.emit import FACE_K
from repro.mangll.dgops import CONFORMING, COARSE, FINE
from repro.mangll.geometry import ShellGeometry
from repro.mangll.mesh import build_mesh, face_node_indices
from repro.mangll.op import DGOperator, MeshContext
from repro.p4est.balance import balance
from repro.p4est.builders import shell
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel import SerialComm
from tests.mangll.test_kernel_blocks import DEGREE, TOL, graded_material, random_q, shell_ctx
from tests.parallel.helpers import run as spmd


def rows_of(op, region):
    """Face rows the kernel runs in ``region``."""
    return sum(B["n"] for B in op._P["fb"] if B["k"] == FACE_K[region])


def split_shell_ctx(comm):
    """The 38-element shell with its refined trees cut between two ranks
    (hanging faces across the rank boundary) and one rank left empty.

    Two unit weights among near-zero ones at global elements 6 and 7:
    partition puts [0, 6] and [7, 37] on ranks 0 and P - 1 at P = 3, and
    leaves rank 2 empty at P = 5.
    """
    forest = Forest.new(shell(0.55, 1.0), comm, level=0)
    forest.refine(callback=lambda o: (o.tree == 3) | (o.tree == 4))
    balance(forest)
    n = len(forest.local)
    w = np.full(n, 1e-9)
    w[np.isin(np.arange(n) + comm.exscan(n), (6, 7))] = 1.0
    forest.partition(weights=w)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, ShellGeometry(0.55, 1.0), DEGREE, ghost)
    return MeshContext(forest, ghost, mesh, comm)


def bind(ctx, bc="free"):
    return DGOperator(ElasticModel(3, graded_material, bc=bc), DEGREE).bind(ctx)


def test_every_interface_is_paired_and_every_face_side_lifted_once():
    ctx = shell_ctx(SerialComm())
    op = bind(ctx)
    sp, nf, npts = op.space, 9, ctx.mesh.npts
    rows = {k: sum(len(b.eminus) for b in sp.batches if b.kind == k)
            for k in (CONFORMING, FINE, COARSE)}
    assert rows[FINE] == rows[COARSE] > 0
    # At P = 1 every FINE row meets its COARSE mirror, and every
    # conforming face is one pair: nothing stays one-sided.
    assert rows_of(op, "face_hang") == rows[FINE]
    assert 2 * rows_of(op, "face_pair") == rows[CONFORMING]
    assert rows_of(op, "face_cf") == rows_of(op, "face_coarse") == 0
    # The lift targets are the reference's face rows — each side of each
    # interface exactly once — field by field within a row.
    lt = op._P["lt"].reshape(-1, sp.nfp, nf)
    assert np.array_equal(lt % nf, np.broadcast_to(np.arange(nf), lt.shape))
    got = np.sort(lt[..., 0] // nf, axis=1)
    want = np.sort(np.concatenate([
        b.eminus[:, None] * npts + face_node_indices(3, sp.nq, b.fminus) for b in sp.batches
    ]), axis=1)
    assert op._P["lb"].shape == (len(want), sp.nfp, nf)
    assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])


def _rank_faces(comm, bc):
    ctx = split_shell_ctx(comm)
    op = bind(ctx, bc)
    nl = ctx.mesh.nelem_local
    ghost = {k: sum(int((b.eplus >= nl).sum()) for b in op.space.batches if b.kind == k)
             for k in (CONFORMING, FINE, COARSE)}
    local_fine = sum(int((b.eplus < nl).sum()) for b in op.space.batches if b.kind == FINE)
    # Ghost-partner rows keep the one-sided regions; the rest pair up.
    one_sided = (rows_of(op, "face_cf") == ghost[CONFORMING] + ghost[FINE]
                 and rows_of(op, "face_coarse") == ghost[COARSE]
                 and rows_of(op, "face_hang") == local_fine)
    q = random_q(ctx)
    model = ElasticModel(3, graded_material, bc=bc)
    got = op.rhs(q, 0.3)  # collective: every rank, empty or not
    want = DGOperator(model, DEGREE, compile=False).bind(ctx).rhs(q, 0.3)
    err = float(np.abs(got - want).max()) if nl else 0.0
    scale = float(np.abs(want).max()) if nl else 0.0
    return nl, ghost[FINE] + ghost[COARSE], one_sided, err, scale


@pytest.mark.parametrize("bc", ["free", "mirror"])
@pytest.mark.parametrize("P", [3, 5])
def test_ghost_partner_rows_stay_one_sided(P, bc):
    out = spmd(P, _rank_faces, bc)
    counts = [n for n, *_ in out]
    assert sum(counts) == 38 and 0 in counts
    assert sum(g for _, g, *_ in out) > 0  # hanging faces across the rank boundary
    assert all(ok for _, _, ok, _, _ in out)
    scale = max(s for *_, s in out)
    assert all(err <= TOL * scale for *_, err, _ in out)


def test_elastic_kernel_source_calls_no_model_and_lifts_once():
    """Neither kind's kernel calls the model, and every region but the
    tail is planned, in 2D and 3D at degrees 1 to 8."""
    for kind, dim, degree in itertools.product(("advection", "elastic"), (2, 3), range(1, 9)):
        nf = 1 if kind == "advection" else dim + dim * (dim + 1) // 2
        an = kc.compile_dg_rhs(dim, degree, nf, kind).analyses["kernel"]
        src = emit.Emitter(an).emit("kernel", ("q_local", "q_all", "P"))
        case = (kind, dim, degree)
        assert "model." not in src, case
        assert 'B["u' not in src, case
        assert src.count(".at(") == 1 and "np.subtract.at(" in src, case
        assert [name for name, rc in an.regions.items() if rc.rows is None] == ["tail"], case


def test_rhs_runs_without_the_model_flux_methods(monkeypatch):
    ctx = shell_ctx(SerialComm())
    op = bind(ctx)
    q = random_q(ctx)
    before = op.rhs(q, 0.2)

    def refuse(*args, **kwargs):
        raise AssertionError("the compiled elastic kernel called the model")

    for name in ("boundary_state", "numerical_flux", "volume_flux"):
        monkeypatch.setattr(op.model, name, refuse)
    assert np.array_equal(op.rhs(q, 0.2), before)
