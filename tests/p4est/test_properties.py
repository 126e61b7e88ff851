"""Cross-cutting hypothesis property tests over the p4est layer.

These stress invariants across randomized inputs: the adapt cycle on
random forests, transform group structure, transfer conservation, and
checksum behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.transfer import transfer_nodal_fields
from repro.p4est.balance import balance, is_balanced
from repro.p4est.builders import brick_3d, moebius, rotcubes, shell, unit_square
from repro.p4est.connectivity import CellTransform
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import SerialComm
from tests.p4est.test_balance_rounds import octant_marks
from tests.parallel.helpers import run as spmd
from repro.parallel.ops import SUM


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4]))
def test_random_adapt_cycles_keep_invariants_3d(seed, size):
    """Random refine/coarsen/balance/partition cycles on the rotcubes
    forest keep all global invariants and 2:1 balance on any rank count."""
    conn = rotcubes()

    def prog(comm):
        rng = np.random.default_rng(seed + 13 * comm.rank)
        forest = Forest.new(conn, comm, level=1)
        for _ in range(2):
            forest.refine(mask=rng.random(forest.local_count) < 0.25)
            forest.coarsen(mask=rng.random(forest.local_count) < 0.2)
            balance(forest)
            forest.partition()
            forest.validate()
        assert is_balanced(forest)
        return forest.checksum() if size == 1 else forest.global_count

    out = spmd(size, prog)
    assert len(set(out)) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.permutations([0, 1, 2]),
    st.tuples(*[st.sampled_from([-1, 1])] * 3),
    st.permutations([0, 1, 2]),
    st.tuples(*[st.sampled_from([-1, 1])] * 3),
)
def test_cell_transform_group_closure(p1, s1, p2, s2):
    """Rigid cell transforms compose associatively and invert exactly."""
    from repro.p4est.bits import DIM3

    L = DIM3.root_len
    t1 = CellTransform(3, tuple(p1), s1, tuple(L if s < 0 else 0 for s in s1))
    t2 = CellTransform(3, tuple(p2), s2, tuple(L if s < 0 else 0 for s in s2))
    comp = t1.compose(t2)
    # Composition then inverse returns to the identity.
    assert comp.compose(comp.inverse()).is_identity()
    assert comp.inverse().compose(comp).is_identity()
    # Apply agrees with sequential application on random points.
    rng = np.random.default_rng(0)
    pts = [rng.integers(0, L, 4).astype(np.int64) for _ in range(3)]
    a = t1.apply_points(t2.apply_points(pts))
    b = comp.apply_points(pts)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_transfer_conserves_reference_mass(seed, degree):
    """Random adapt + transfer conserves the reference-space integral."""
    conn = unit_square()
    rng = np.random.default_rng(seed)
    forest = Forest.new(conn, SerialComm(), level=3)
    geo = MultilinearGeometry(conn)
    mesh0 = build_mesh(forest, geo, degree)
    nl = mesh0.nelem_local
    q0 = rng.normal(0, 1, (nl, mesh0.npts))
    w0 = mesh0.detj[:nl] * mesh0.weights[None, :]
    mass0 = float((w0 * q0).sum())

    old = forest.local.copy()
    forest.refine(mask=rng.random(forest.local_count) < 0.3)
    forest.coarsen(mask=rng.random(forest.local_count) < 0.5)
    balance(forest)
    q1 = transfer_nodal_fields(old, q0, forest.local, degree)
    mesh1 = build_mesh(forest, geo, degree)
    w1 = mesh1.detj[: mesh1.nelem_local] * mesh1.weights[None, :]
    mass1 = float((w1 * q1).sum())
    # Affine mesh: quadrature of the transferred polynomial is exact for
    # refinement; coarsening projects L2, conserving the integral.
    np.testing.assert_allclose(mass1, mass0, rtol=1e-10, atol=1e-12)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10**6))
def test_nodes_count_invariant_under_partition(seed):
    """The global cG node count is independent of the partition."""
    conn = moebius()

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        forest.refine(callback=lambda o: octant_marks(o, seed, 3))
        balance(forest)
        forest.partition()
        ghost = build_ghost(forest)
        ln = lnodes(forest, ghost, 1)
        total = comm.allreduce(ln.num_owned, SUM)
        assert total == ln.global_num_nodes
        return forest.checksum(), ln.global_num_nodes

    # Marks hash the octant, not the rank: every P builds the same forest.
    out = [row for size in (1, 3, 5) for row in spmd(size, prog)]
    assert len(set(out)) == 1
    assert out[0][1] > 0


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_balance_is_minimal_ish(seed):
    """Balance never coarsens and is idempotent."""
    conn = brick_3d(2, 1, 1)
    rng = np.random.default_rng(seed)
    forest = Forest.new(conn, SerialComm(), level=1)
    forest.refine(mask=rng.random(forest.local_count) < 0.4)
    forest.refine(mask=rng.random(forest.local_count) < 0.3)
    before = forest.global_count
    balance(forest)
    after = forest.global_count
    assert after >= before
    balance(forest)
    assert forest.global_count == after


def test_shell_full_pipeline_smoke():
    """End-to-end: shell forest -> balance -> ghost -> nodes -> mesh."""
    conn = shell()

    def prog(comm):
        forest = Forest.new(conn, comm, level=1)
        forest.refine(mask=forest.local.tree < 4)
        balance(forest)
        forest.partition()
        ghost = build_ghost(forest)
        ln = lnodes(forest, ghost, 2)
        from repro.mangll.geometry import ShellGeometry

        mesh = build_mesh(forest, ShellGeometry(), 2, ghost)
        assert mesh.nelem_local == forest.local_count
        return ln.global_num_nodes

    out = spmd(3, prog)
    assert len(set(out)) == 1
