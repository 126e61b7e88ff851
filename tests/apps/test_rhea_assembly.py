"""The batched constraint-assembly path against per-element references.

The references below are the element loops the batched code replaced
(``for e in range(nl): R = cgs.element_R(e)`` and the LIL Dirichlet
elimination), the COO → CSR assembly and the ``einsum`` element matrices
the node-pair plan and the batched matmul replaced, kept here so the two
can be compared on a 3D forest that has hanging faces *and* pure hanging
edges.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.apps.rhea.stokes as stokes_module
from repro.apps.rhea.driver import RheaConfig, RheaRun
from repro.apps.rhea.energy import supg_energy_rhs
from repro.apps.rhea.stokes import BFBTPreconditioner, StokesProblem
from repro.mangll.cgops import CGSpace, apply_dirichlet, eliminate_dirichlet
from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.p4est.balance import balance
from repro.p4est.builders import unit_cube
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import SerialComm


@pytest.fixture(scope="module")
def space():
    conn = unit_cube()
    comm = SerialComm()
    forest = Forest.new(conn, comm, level=2)
    octs = forest.local
    half = forest.D.root_len // 2
    # An L-shaped refined region: fine elements along its re-entrant edge
    # meet the coarse column only across an edge (a pure hanging edge).
    forest.refine(mask=(octs.x < half) | (octs.y < half))
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), 1, ghost)
    ln = lnodes(forest, ghost, 1)
    cgs = CGSpace(mesh, ln, comm)
    face_hangs = (ln.hanging_face >= 0).any(axis=1)
    edge_hangs = (ln.hanging_edge >= 0).any(axis=1)
    assert face_hangs.any() and (edge_hangs & ~face_hangs).any()
    assert not face_hangs.all()
    return conn, cgs


def fields(cgs, seed=0):
    rng = np.random.default_rng(seed)
    nl = cgs.mesh.nelem_local
    eta = np.exp(rng.uniform(-2.0, 2.0, (nl, cgs.npts)))
    force = rng.standard_normal((nl, cgs.npts, cgs.dim))
    return eta, force


def assert_same_matrix(new, old):
    """Same CSR pattern; values equal to 1e-14 of the largest entry."""
    new, old = sp.csr_matrix(new), sp.csr_matrix(old)
    for M in (new, old):
        M.sum_duplicates()
    assert new.shape == old.shape
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)
    assert np.abs(new.data - old.data).max() <= 1e-14 * np.abs(old.data).max()


# --- per-element references ---------------------------------------------------


def reference_assemble_matrix(cgs, elem_mats):
    nloc = cgs.ln.num_local_nodes
    rows, cols, vals = [], [], []
    for e in range(cgs.mesh.nelem_local):
        R = cgs.element_R(e)
        ids = cgs.ln.element_nodes[e]
        rows.append(np.repeat(ids, cgs.npts))
        cols.append(np.tile(ids, cgs.npts))
        vals.append((R.T @ elem_mats[e] @ R).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nloc, nloc),
    ).tocsr()


def reference_assemble_vector(cgs, elem_vecs):
    out = np.zeros(cgs.ln.num_local_nodes)
    for e in range(cgs.mesh.nelem_local):
        np.add.at(out, cgs.ln.element_nodes[e], cgs.element_R(e).T @ elem_vecs[e])
    return out


def reference_stokes_assemble(stokes, eta, force):
    cgs = stokes.cgs
    d, npts = stokes.dim, stokes.npts
    nloc = cgs.ln.num_local_nodes
    K, Be, Ce, fe = stokes.element_matrices(eta, force)
    trip = {name: ([], [], []) for name in "ABC"}
    fvec = np.zeros(nloc * d)
    for e in range(cgs.mesh.nelem_local):
        R = cgs.element_R(e)
        Rv = np.kron(R, np.eye(d))
        ids = cgs.ln.element_nodes[e]
        vids = (ids[:, None] * d + np.arange(d)[None, :]).ravel()
        for name, rows, cols, block in (
            ("A", vids, vids, Rv.T @ K[e] @ Rv),
            ("B", ids, vids, R.T @ Be[e] @ Rv),
            ("C", ids, ids, R.T @ Ce[e] @ R),
        ):
            trip[name][0].append(np.repeat(rows, len(cols)))
            trip[name][1].append(np.tile(cols, len(rows)))
            trip[name][2].append(block.ravel())
        np.add.at(fvec, vids, Rv.T @ fe[e])
    shapes = {"A": (nloc * d, nloc * d), "B": (nloc, nloc * d), "C": (nloc, nloc)}
    mats = [
        sp.coo_matrix(
            (np.concatenate(v), (np.concatenate(r), np.concatenate(c))), shape=shapes[name]
        ).tocsr()
        for name, (r, c, v) in trip.items()
    ]
    return (*mats, fvec)


def reference_coo_assemble(cgs, elem_mats, rc, cc):
    """COO indices broadcast in element order, summed by scipy's COO → CSR."""
    nelem, npts = cgs.mesh.nelem_local, cgs.npts
    nloc = cgs.ln.num_local_nodes
    en = cgs.ln.element_nodes[:nelem]
    rdof = (en[:, :, None] * rc + np.arange(rc)).reshape(nelem, npts * rc)
    cdof = (en[:, :, None] * cc + np.arange(cc)).reshape(nelem, npts * cc)
    rows = np.broadcast_to(rdof[:, :, None], elem_mats.shape)
    cols = np.broadcast_to(cdof[:, None, :], elem_mats.shape)
    return sp.coo_matrix(
        (elem_mats.ravel(), (rows.ravel(), cols.ravel())), shape=(nloc * rc, nloc * cc)
    ).tocsr()


def reference_element_loop_sum(cgs, elem_mats, rc, cc):
    """Dense sum of ``R_r^T K_e R_c``, element by element, entry by entry."""
    nloc = cgs.ln.num_local_nodes
    out = np.zeros((nloc * rc, nloc * cc))
    for e in range(cgs.mesh.nelem_local):
        R = cgs.element_R(e)
        Rr, Rc = np.kron(R, np.eye(rc)), np.kron(R, np.eye(cc))
        ids = cgs.ln.element_nodes[e]
        rows = (ids[:, None] * rc + np.arange(rc)).ravel()
        cols = (ids[:, None] * cc + np.arange(cc)).ravel()
        np.add.at(out, (rows[:, None], cols[None, :]), Rr.T @ elem_mats[e] @ Rc)
    return out


def reference_element_matrices(stokes, eta):
    """The ``einsum`` forms of ``K_u`` and ``B``."""
    d, npts = stokes.dim, stokes.npts
    PG, wdet = stokes.cgs.physical_gradients()
    nl = PG.shape[0]
    weta = wdet * eta
    lap = np.einsum("eq,eqik,eqjk->eij", weta, PG, PG)
    cross = np.einsum("eq,eqib,eqja->eiajb", weta, PG, PG)
    K = np.zeros((nl, npts * d, npts * d))
    for c in range(d):
        K[:, c::d, c::d] += lap
    K += cross.reshape(nl, npts * d, npts * d)
    B = np.zeros((nl, npts, npts * d))
    for c in range(d):
        B[:, :, c::d] = -(wdet[:, :, None] * PG[:, :, :, c])
    return K, B


def reference_lil_elimination(A, fixed):
    A = A.tolil()
    ii = np.flatnonzero(fixed)
    A[ii, :] = 0.0
    A[:, ii] = 0.0
    for i in ii:
        A[i, i] = 1.0
    return A.tocsr()


def reference_apply_dirichlet(A, b, mask, values):
    fixed = np.flatnonzero(mask)
    b = b - A.tocsr()[:, fixed] @ values[fixed]
    b[fixed] = values[fixed]
    return reference_lil_elimination(A, mask), b


def reference_energy_rhs(cgs, T, u, kappa, source):
    PG, wdet = cgs.physical_gradients()
    nl = cgs.mesh.nelem_local
    en = cgs.ln.element_nodes
    h = cgs.mesh.element_volumes()[:nl] ** (1.0 / cgs.dim)
    rhs = np.zeros(cgs.ln.num_local_nodes)
    mass = np.zeros(cgs.ln.num_local_nodes)
    for e in range(nl):
        R = cgs.element_R(e)
        Te, ue = R @ T[en[e]], R @ u[en[e]]
        gradT = np.einsum("qjc,j->qc", PG[e], Te)
        speed = np.linalg.norm(ue, axis=1)
        tau = np.where(speed > 1e-10, h[e] / np.maximum(2.0 * speed, 1e-12), 0.0)
        resid = np.einsum("qc,qc->q", ue, gradT) - R @ source[en[e]]
        re = -wdet[e] * resid
        re -= np.einsum("qc,qjc->qj", ue, PG[e]).T @ (wdet[e] * tau * resid)
        re -= kappa * np.einsum("qjc,qc->j", PG[e], wdet[e][:, None] * gradT)
        np.add.at(rhs, en[e], R.T @ re)
        np.add.at(mass, en[e], R.T @ wdet[e])
    return rhs / np.maximum(mass, 1e-300)


# --- tests --------------------------------------------------------------------


def test_constraint_groups_cover_exactly_the_hanging_elements(space):
    _, cgs = space
    groups = cgs.constraint_groups()
    assert groups is cgs.constraint_groups()  # computed once per space
    seen = np.concatenate([elems for elems, _ in groups])
    assert len(np.unique(seen)) == len(seen)
    eye = np.eye(cgs.npts)
    for e in range(cgs.mesh.nelem_local):
        if e not in seen:
            np.testing.assert_array_equal(cgs.element_R(e), eye)
    for elems, R in groups:
        assert np.all(np.diff(elems) > 0)
        for e in elems:
            np.testing.assert_array_equal(cgs.element_R(int(e)), R)


def test_element_values_match_per_element_constraint(space):
    _, cgs = space
    rng = np.random.default_rng(1)
    en = cgs.ln.element_nodes
    for x in (rng.standard_normal(len(cgs.ln.keys)), rng.standard_normal((len(cgs.ln.keys), 3))):
        got = cgs.element_values(x)
        for e in range(cgs.mesh.nelem_local):
            np.testing.assert_allclose(got[e], cgs.element_R(e) @ x[en[e]], rtol=0, atol=1e-14)


def test_assemble_matrix_and_vector_match_reference(space):
    _, cgs = space
    rng = np.random.default_rng(2)
    coeff = np.exp(rng.uniform(-1.0, 1.0, (cgs.mesh.nelem_local, cgs.npts)))
    Ke = cgs.elem_laplacian(coeff)
    keep = Ke.copy()
    assert_same_matrix(cgs.assemble_matrix(Ke), reference_assemble_matrix(cgs, Ke))
    np.testing.assert_array_equal(Ke, keep)  # the caller's array is not constrained in place
    ve = rng.standard_normal((cgs.mesh.nelem_local, cgs.npts))
    got, want = cgs.assemble_vector(ve), reference_assemble_vector(cgs, ve)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_stokes_assemble_matches_per_element_reference(space):
    _, cgs = space
    stokes = StokesProblem(cgs)
    eta, force = fields(cgs)
    new = stokes.assemble(eta, force)
    old = reference_stokes_assemble(stokes, eta, force)
    for got, want in zip(new[:3], old[:3]):
        assert_same_matrix(got, want)
    assert np.abs(new[3] - old[3]).max() <= 1e-14 * np.abs(old[3]).max()


@pytest.mark.parametrize("rc, cc", [(1, 1), (1, 3), (3, 3)])
def test_plan_assembly_is_the_element_loop_sum_bitwise(space, rc, cc):
    _, cgs = space
    rng = np.random.default_rng(6)
    shape = (cgs.mesh.nelem_local, cgs.npts * rc, cgs.npts * cc)
    elem_mats = rng.standard_normal(shape) * np.exp(rng.uniform(-8.0, 8.0, shape))
    got = cgs.assemble_matrix(elem_mats, rc, cc)
    want = reference_coo_assemble(cgs, elem_mats, rc, cc)
    assert got.has_canonical_format
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.indices.dtype == want.indices.dtype
    np.testing.assert_array_equal(got.toarray(), reference_element_loop_sum(cgs, elem_mats, rc, cc))


def test_assembly_plan_is_built_once_per_space(space):
    _, cgs = space
    plan = cgs.assembly_plan()
    assert cgs.assembly_plan() is plan
    assert cgs.physical_gradients() is cgs.physical_gradients()
    nelem = cgs.mesh.nelem_local
    en = cgs.ln.element_nodes[:nelem]
    slot = plan.slot.reshape(nelem, cgs.npts, cgs.npts)
    rows = np.repeat(np.arange(cgs.ln.num_local_nodes), np.diff(plan.indptr))
    np.testing.assert_array_equal(rows[slot], np.broadcast_to(en[:, :, None], slot.shape))
    np.testing.assert_array_equal(plan.indices[slot], np.broadcast_to(en[:, None, :], slot.shape))


def test_element_matrices_match_einsum_forms(space):
    _, cgs = space
    stokes = StokesProblem(cgs)
    eta, force = fields(cgs)
    K, B, _, _ = stokes.element_matrices(eta, force)
    K_ref, B_ref = reference_element_matrices(stokes, eta)
    assert np.abs(K - K_ref).max() <= 1e-14 * np.abs(K_ref).max()
    np.testing.assert_array_equal(B, B_ref)


def test_masked_elimination_equals_lil_elimination(space):
    conn, cgs = space
    stokes = StokesProblem(cgs)
    A = stokes.assemble(*fields(cgs))[0]
    fixed = np.repeat(cgs.boundary_node_mask(conn), cgs.dim)
    new, old = eliminate_dirichlet(A, fixed), reference_lil_elimination(A, fixed)
    assert (old != new).nnz == 0
    # Eliminated entries leave the pattern, which is what lets the AMG
    # setup recognise the no-slip nodes as decoupled.
    assert new.nnz == np.count_nonzero(old.toarray())


def test_apply_dirichlet_equals_lil_reference_with_nonzero_values(space):
    conn, cgs = space
    A = cgs.assemble_matrix(cgs.elem_laplacian())
    rng = np.random.default_rng(3)
    b, values = rng.standard_normal((2, A.shape[0]))
    mask = cgs.boundary_node_mask(conn)
    A_new, b_new = apply_dirichlet(A, b, mask, values)
    A_old, b_old = reference_apply_dirichlet(A, b, mask, values)
    assert (A_old != A_new).nnz == 0
    np.testing.assert_array_equal(b_new, b_old)
    np.testing.assert_array_equal(b_new[mask], values[mask])


def test_strain_rate_invariant_matches_per_element_reference(space):
    _, cgs = space
    stokes = StokesProblem(cgs)
    u = np.random.default_rng(4).standard_normal((len(cgs.ln.keys), 3))
    PG, _ = cgs.physical_gradients()
    got = stokes.strain_rate_invariant(u)
    ue = cgs.element_values(u)
    grad = np.einsum("eqjc,ejd->eqcd", PG, ue)
    epsm = 0.5 * (grad + grad.transpose(0, 1, 3, 2))
    want = np.einsum("eqcd,eqcd->eq", epsm, epsm)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for e in range(cgs.mesh.nelem_local):
        ue = cgs.element_R(e) @ u[cgs.ln.element_nodes[e]]
        grad = np.einsum("qjc,jd->qcd", PG[e], ue)
        epsm = 0.5 * (grad + grad.transpose(0, 2, 1))
        np.testing.assert_allclose(got[e], np.einsum("qcd,qcd->q", epsm, epsm), rtol=1e-13)


def test_supg_energy_rhs_matches_per_element_reference(space):
    _, cgs = space
    rng = np.random.default_rng(5)
    n = len(cgs.ln.keys)
    T, source, u = rng.random(n), rng.random(n), rng.standard_normal((n, 3))
    u[: n // 4] = 0.0  # exercise the tau = 0 branch
    got = supg_energy_rhs(cgs, T, u, kappa=0.3, source=source)
    want = reference_energy_rhs(cgs, T, u, 0.3, source)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_nodal_from_element_inverts_element_values_on_the_shell():
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=2))
    assert run.cgs.constraint_groups()
    np.testing.assert_allclose(run._nodal_from_element(run._element_T()), run.T, rtol=1e-12)


def reference_eliminate(A, B, C, fixed):
    """The per-step elimination the cached saddle structure replaced.

    ``B`` times a diagonal leaves each row's columns in descending order;
    sorting them moves no value, so the comparison stays bitwise."""
    A = eliminate_dirichlet(A, fixed)
    B = sp.csr_matrix(B @ sp.diags((~fixed).astype(np.float64)))
    B.eliminate_zeros()
    K = sp.bmat([[A, B.T], [B, -C]], format="csr")
    return A, B.sorted_indices(), K


def assert_bitwise(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def check_saddle_structure(stokes, A, B, C, fixed):
    for got, want in zip(stokes.eliminate(A, B, C, fixed), reference_eliminate(A, B, C, fixed)):
        assert_bitwise(got, want)


def test_saddle_structure_is_the_per_step_elimination_bitwise(space):
    conn, cgs = space
    stokes = StokesProblem(cgs)
    fixed = np.repeat(cgs.boundary_node_mask(conn), cgs.dim)
    for seed in (0, 1):
        A, B, C, _ = stokes.assemble(*fields(cgs, seed))
        check_saddle_structure(stokes, A, B, C, fixed)
    # A free entry that is exactly 0.0 leaves the pattern, as it does
    # under eliminate_dirichlet, with the structure kept.
    structure = stokes._saddle
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    free = np.flatnonzero(~fixed[rows] & ~fixed[A.indices] & (A.data != 0))
    A.data[free[len(free) // 2]] = 0.0
    free = np.flatnonzero(~fixed[B.indices] & (B.data != 0))
    B.data[free[len(free) // 2]] = 0.0
    check_saddle_structure(stokes, A, B, C, fixed)
    assert stokes._saddle is structure  # built once for the mask
    fixed[: len(fixed) // 3] = True
    check_saddle_structure(stokes, A, B, C, fixed)
    assert stokes._saddle is not structure


def test_saddle_structure_is_bitwise_on_the_workload_shell():
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=2))
    fixed = run._fixed_velocity().reshape(-1)
    for step in range(2):
        A, B, C, _ = run.stokes.assemble(run.viscosity_field(), run.body_force())
        check_saddle_structure(run.stokes, A, B, C, fixed)
        run.picard_step()


def test_bfbt_preconditioner_is_symmetric_positive_on_mean_zero_vectors(space):
    conn, cgs = space
    stokes = StokesProblem(cgs)
    A, B, C, _ = stokes.assemble(*fields(cgs))
    A, B, _ = stokes.eliminate(A, B, C, np.repeat(cgs.boundary_node_mask(conn), cgs.dim))
    M = BFBTPreconditioner(A, B, C, block_size=cgs.dim)
    assert len(M.pressure.level_sizes) > 1  # a real pressure hierarchy
    nv = A.shape[0]
    rng = np.random.default_rng(8)
    z = rng.standard_normal((8, nv + C.shape[0]))
    z[4:, :nv] = 0.0  # the pressure block alone
    z[:, nv:] -= z[:, nv:].mean(axis=1, keepdims=True)
    Mz = np.array([M(x) for x in z])
    assert M.cycles == 3 * len(z)
    np.testing.assert_allclose(Mz[:, nv:].mean(axis=1), 0.0, atol=1e-12 * np.abs(Mz).max())
    gram = z @ Mz.T  # gram[i, j] = z_i . M z_j
    assert (np.diag(gram) > 0).all()
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    assert np.abs(gram - gram.T).max() <= 1e-12 * scale.max()


def direct_velocity(run, eta, force):
    """Velocity of an ``splu`` solve of the step's eliminated saddle system
    ``K``, the pressure null space closed by a mean-zero multiplier row."""
    A, B, C, f = run.stokes.assemble(eta, force)
    fixed = run._fixed_velocity().reshape(-1)
    A = eliminate_dirichlet(A, fixed)
    B = sp.csr_matrix(B @ sp.diags((~fixed).astype(np.float64)))
    f[fixed] = 0.0
    nv, npres = A.shape[0], C.shape[0]
    mean = sp.csr_matrix(np.concatenate([np.zeros(nv), np.ones(npres)])[None, :])
    K = sp.bmat([[A, B.T, mean[:, :nv].T], [B, -C, mean[:, nv:].T], [mean[:, :nv], mean[:, nv:], None]])
    x = spla.splu(sp.csc_matrix(K)).solve(np.concatenate([f, np.zeros(npres + 1)]))
    return x[:nv].reshape(-1, run.dim)


@pytest.mark.parametrize("max_level", [1, 2])
def test_picard_velocity_agrees_with_a_direct_solve(max_level):
    """The invariant of the Stokes solver: whatever preconditions MINRES,
    each Picard step's velocity is the direct solve's to 1e-5."""
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=max_level))
    for step in range(4):
        if step == 2:
            run.adapt()
        eta, force = run.viscosity_field(), run.body_force()
        assert run.picard_step().converged
        want = direct_velocity(run, eta, force)
        assert np.abs(run.u - want).max() <= 1e-5 * np.abs(want).max()


class ExactPressureBFBT(BFBTPreconditioner):
    """BFBT with each ``L^-1`` applied exactly: ``splu`` of ``L`` bordered
    by a mean-zero multiplier row."""

    def __init__(self, A, B, C, block_size):
        super().__init__(A, B, C, block_size)
        S = B @ sp.diags(np.sqrt(1.0 / A.diagonal()))
        ones = sp.csr_matrix(np.ones((1, C.shape[0])))
        L = sp.bmat([[S @ S.T + C, ones.T], [ones, None]])
        self.lu = spla.splu(sp.csc_matrix(L))

    def _pressure_vcycle(self, b):
        return self.lu.solve(np.append(b, 0.0))[:-1]


def picard_iterations(max_level):
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=max_level))
    iterations = []
    for step in range(4):
        if step == 2:
            run.adapt()
        result = run.picard_step()
        assert result.converged
        iterations.append(result.iterations)
    return iterations


def test_pressure_vcycles_are_as_strong_as_an_exact_pressure_solve(monkeypatch):
    """The shipped BFBT needs at most one MINRES iteration a Picard step
    more than BFBT with exact ``L^-1`` (11; one SGS sweep needed 16)."""
    shipped = picard_iterations(1)
    monkeypatch.setattr(stokes_module, "BFBTPreconditioner", ExactPressureBFBT)
    exact = picard_iterations(1)
    assert all(s <= e + 1 for s, e in zip(shipped, exact)), (shipped, exact)


def test_stokes_result_reports_hierarchy_and_elimination_time():
    run = RheaRun(SerialComm(), RheaConfig(base_level=1, max_level=1, stokes_maxiter=3))
    result = run.picard_step()
    nfree = int((~run._fixed_velocity()).sum())
    assert result.amg_sizes[0] == nfree
    assert result.amg_sizes[-1] <= 60
    # A velocity and two pressure cycles per application; MINRES applies
    # the preconditioner once before its first iteration.
    assert result.vcycles == 3 * (result.iterations + 1)
    assert 0.0 <= result.timings["eliminate"] <= result.timings["assemble"]
