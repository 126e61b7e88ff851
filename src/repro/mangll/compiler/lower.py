"""Lowering: the dG RHS -> a tensor IR graph (plus bind providers).

:func:`lower_dg_rhs` writes the *reference implementation's exact
computation* (:mod:`repro.mangll.dg`) into a
:class:`~repro.mangll.compiler.ir.Graph`, preserving every einsum
subscript string and the associativity of every pointwise template.
The passes then hoist the time-invariant subgraphs (geometry factors,
velocity/impedance tables, face masks) to bind time; what remains in
the kernel is bit-identical to the interpreted loop.

Flux models are lowered per *kind* — the ``lowering_kind`` the model's
own class declares (:func:`model_kind`).  A compiled kernel never calls
the model: the only model queries in a graph are ``extern`` nodes of
position alone, evaluated once at bind.

``advection``
    :class:`~repro.mangll.models.AdvectionModel` — fully lowered; the
    velocity field is a bind-time ``velocity(x)`` query (the model API
    takes no time argument, so it is invariant by contract).
``elastic``
    Velocity-strain elastodynamics (the dGea ``ElasticModel``; fluid
    regions are the same model with mu = 0).
    Lowered from the same physics but **restructured**: the flux is
    linear in ``q`` with position-only coefficients, so every material
    product (``2 mu``, ``lam``, ``1/rho``, the P/S impedances and the
    fluid guard) folds with the geometry factors into bind-stage
    coefficient tables, and the kernel never materializes the
    ``(..., dim, dim)`` stress tensor or the ``(..., nf, dim)`` flux
    block — each output row is one multiply-add chain.  Inside a block
    the fields are *planes*: ``q`` is transposed once to
    ``(nf, rows, points)``, every chain reads and writes contiguous
    planes (a flux component goes straight into its plane of a
    ``stack``), the derivative along x and the mortar products are each
    one GEMM over all planes, and one transpose brings the block back.
    The boundary condition (free surface or mirror) is substituted into
    the Riemann solution, so the kernel never calls the model, and every
    interface with both sides local is evaluated once.  This reorders
    floating-point operations, so elastic kernels match the interpreted
    reference to rounding (validated by tolerance), not bit-for-bit;
    the bit-exactness contract covers advection.

Both kinds run their face regions on *merged* batches (one per region
and transfer matrix) that gather through flat node-index tables and
deposit their lifts for one ``np.subtract.at`` in the tail.  The
advection kind keeps every float of the reference: its tables are
node-major and the lift walks the reference's order.  The elastic
kind's layout is free.

The bind *providers* at the bottom give the evaluator its environment:
global tables come from the (internal, reference) ``DGSolver`` so they
are byte-identical to what the interpreted path uses, and per-batch
values mirror ``DGSolver._faces`` exactly — including the sign flip
and plus-side geometry of COARSE mortars.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..dgops import BOUNDARY, COARSE, CONFORMING, FINE
from ..mesh import face_node_indices
from .ir import Graph

#: Model kinds the dG lowering understands.
DG_KINDS = ("advection", "elastic")

#: Strain component order of the elastic kind (apps.dgea voigt_pairs).
_VOIGT_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


def _voigt_index(dim: int) -> Dict[Tuple[int, int], int]:
    """Symmetric ``(i, j) -> Voigt slot`` map for the elastic lowering."""
    out: Dict[Tuple[int, int], int] = {}
    for k, (i, j) in enumerate(_VOIGT_PAIRS[dim]):
        out[(i, j)] = out[(j, i)] = k
    return out


#: Mortar kind -> face region.
KIND_REGION = {
    CONFORMING: "face_cf",
    FINE: "face_cf",
    BOUNDARY: "face_b",
    COARSE: "face_coarse",
}

# D^T application subscripts per (dim, axis) — must match DGSolver._apply_dt.
_DT_SUBS = {
    (2, 0): "qi,eyqf->eyif",
    (2, 1): "qj,eqxf->ejxf",
    (3, 0): "qi,ezyqf->ezyif",
    (3, 1): "qj,ezqxf->ezjxf",
    (3, 2): "qk,eqyxf->ekyxf",
}


def dg_cache_key(dim: int, degree: int, nfields: int, kind: str) -> str:
    """Specialization key for a dG RHS kernel."""
    return f"dg_rhs-d{dim}-p{degree}-f{nfields}-{kind}"


# --- dG RHS -----------------------------------------------------------------


class _ModelLowering:
    """Per-kind lowering of the flux-model methods into a graph."""

    def __init__(self, g: Graph, kind: str, dim: int) -> None:
        self.g = g
        self.dim = dim
        if kind == "advection":
            self.inflow = g.table("inflow", ())
        else:
            self.pairs = _VOIGT_PAIRS[dim]
            self.vk = _voigt_index(dim)

    def _nsl(self, n: int) -> int:
        return self.g.pw(f"{{0}}[..., :{self.dim}]", n)

    # --- elastic helpers ---------------------------------------------------

    def _material(self, x: int) -> Tuple[int, int, int]:
        """Bind-stage ``(rho, lam, mu)`` at the coordinate node ``x``."""
        g = self.g
        m = g.extern("material", x, like="np.ones((3,) + {0}.shape[:-1])")
        return g.pw("{0}[0]", m), g.pw("{0}[1]", m), g.pw("{0}[2]", m)

    def _mac(self, terms: List[Tuple[int, int]], negate: bool = False) -> int:
        """One ``sum coef * val`` (optionally negated) expression."""
        expr = " + ".join(f"{{{2 * i}}} * {{{2 * i + 1}}}" for i in range(len(terms)))
        if negate:
            expr = f"-({expr})"
        return self.g.pw(expr, *[nid for pair in terms for nid in pair])

    def planes(self, qs: int) -> int:
        """``qs`` of shape ``(rows, points, nf)`` as ``(nf, rows, points)``.

        One contiguous transposing copy, so every per-field plane the
        multiply-add chains read is contiguous — strided ``q[..., k]``
        views cost ~3x the bandwidth per pass.
        """
        return self.g.pw("np.ascontiguousarray(np.moveaxis({0}, -1, 0))", qs)

    def _q_fields(self, qT: int) -> Tuple[List[int], List[int], int]:
        """Momentum planes, Voigt-strain planes, and the strain trace."""
        g, dim = self.g, self.dim
        m = [g.pw(f"{{0}}[{i}]", qT) for i in range(dim)]
        E = [g.pw(f"{{0}}[{dim + k}]", qT) for k in range(len(self.pairs))]
        tr = g.pw(" + ".join(f"{{{a}}}" for a in range(dim)), *E[:dim])
        return m, E, tr

    def elastic_volume_axis(self, qT: int, x: int, ja: int, dw: int) -> int:
        """Volume flux contracted against one metric row, detJ-w folded.

        Returns ``(jinv_a . F(q, x)) * w detJ`` as planes ``(nf, e, p)``
        without building ``sigma`` or ``F``: the flux is linear in ``q``,
        so each row is ``sum_c coef_c(x) * q_plane_c`` with the
        coefficients (material x metric x quadrature) hoisted to bind.
        """
        g, dim = self.g, self.dim
        rho, lam, mu = self._material(x)
        invrho = g.pw("1.0 / {0}", rho)
        twomu = g.pw("2.0 * {0}", mu)
        jc = [g.pw(f"{{0}}[..., {c}]", ja) for c in range(dim)]
        # Momentum rows: -(ja . sigma)_i = -[ sum_c (ja_c 2mu) E_k(i,c)
        # + (ja_i lam) tr E ]; strain rows: -(d_i m_j + d_j m_i) / 2 with
        # d_c = ja_c / rho.  All coefficients carry the w detJ factor
        # and the minus sign, so no run-stage negation pass; the halving
        # is one exact run-stage multiply instead of a second table per
        # metric component.
        ntm = [g.pw("-{0} * {1} * {2}", jc[c], twomu, dw) for c in range(dim)]
        ncl = [g.pw("-{0} * {1} * {2}", jc[i], lam, dw) for i in range(dim)]
        nd = [g.pw("-{0} * {1} * {2}", jc[i], invrho, dw) for i in range(dim)]
        m, E, tr = self._q_fields(qT)
        comps = [
            self._mac(
                [(ntm[c], E[self.vk[i, c]]) for c in range(dim)] + [(ncl[i], tr)]
            )
            for i in range(dim)
        ]
        for i, j in self.pairs:
            if i == j:
                comps.append(g.pw("{0} * {1}", nd[i], m[i]))
            else:
                comps.append(self._half_mac(nd[i], m[j], nd[j], m[i]))
        return g.stack(*comps)

    def _half_mac(self, a: int, x: int, b: int, y: int) -> int:
        """``(a x + b y) / 2`` — a symmetrized strain row."""
        return self.g.pw("0.5 * ({0} * {1} + {2} * {3})", a, x, b, y)

    def elastic_face_out(
        self, qmT: int, qpT: Optional[int], n: int, sjw: int, xf: int, bc: str = ""
    ) -> int:
        """Lifted Godunov elastic interface flux, ``sj * wf`` folded in.

        Takes both traces — or, on a boundary face, the minus trace and
        the boundary condition ``bc`` — and returns the flux as planes
        ``(nf, rows, face points)``.  Same Riemann solution as
        ``ElasticModel.numerical_flux`` — normal/tangential split, P and
        S stars, fluid (mu -> 0) guard — but algebraically consolidated:
        expanding the tangential projections ``Tt = T - Tn n`` and
        ``vt = v/rho - vn n`` into the star and output rows turns every
        row into a short multiply-add chain over *raw field*
        sums/differences, with the normal projections absorbed into
        three Riemann scalars::

            S_v = (1/2z_p - 1/2z_s) (Tn+ - Tn-)
            S_m = (s/2 - 1/2) (Tn- + Tn+) + (z_s - z_p)/2 (vn+ - vn-)
            v*_i = S_v n_i + (m-_i + m+_i)/2rho + (T+_i - T-_i)/2z_s

        (``s`` the fluid mask).  The surface-jacobian x face-weight lift
        factor multiplies only bind-stage coefficients, so no run-stage
        ``flux * sjwf`` pass or temporary exists.  The value returned is
        the *minus-side* lift contribution; by conservation the plus-side
        contribution of an interior face is exactly its negation, which
        the ``face_pair`` and ``face_hang`` regions exploit.

        A boundary face substitutes ``ElasticModel.boundary_state``'s
        ghost into the same scalars: ``free`` is ``m+ = m-``,
        ``T+ = -T-`` (then ``S_m``, ``T-_i + T+_i`` and ``m+_i - m-_i``
        vanish: the momentum rows are exactly zero), ``mirror`` is
        ``m+ = m- - 2 (m-.n) n``, ``T+ = 2 Tn- n - T-``.  Both leave
        ``v*_i = a n_i + m-_i / rho - T-_i / z_s`` with ``a = (1/z_s -
        1/z_p) Tn-`` (free) or ``Tn- / z_s - vn-`` (mirror), and mirror
        momentum rows ``n_i sj wf (z_p vn- - Tn-)``.  In fluid points
        ``T = Tn n``, so the reference's isotropic fluid ghost is this
        same state.
        """
        g, dim = self.g, self.dim
        rho, lam, mu = self._material(xf)
        invrho = g.pw("1.0 / {0}", rho)
        twomu = g.pw("2.0 * {0}", mu)
        nsl = self._nsl(n)
        nc = [g.pw(f"{{0}}[..., {c}]", nsl) for c in range(dim)]
        zp = g.pw("{0} * np.sqrt(({1} + 2.0 * {2}) / {0})", rho, lam, mu)
        zs = g.pw("{0} * np.sqrt(np.maximum({1}, 0.0) / {0})", rho, mu)
        fluid = g.pw("2.0 * {0} < 1e-12", zs)
        inv2zp = g.pw("0.5 / {0}", zp)
        hzp = g.pw("0.5 * {0}", zp)
        inv2zs = g.pw("np.where({0}, 0.0, 0.5 / np.where({0}, 1.0, {1}))", fluid, zs)
        hzs = g.pw("np.where({0}, 0.0, 0.5 * {1})", fluid, zs)
        shalf = g.pw("np.where({0}, 0.0, 0.5)", fluid)
        ct = [g.pw("{0} * {1}", nc[c], twomu) for c in range(dim)]
        cln = [g.pw("{0} * {1}", nc[i], lam) for i in range(dim)]
        cvn = [g.pw("{0} * {1}", nc[i], invrho) for i in range(dim)]
        # Riemann-scalar and output-row coefficients (all bind stage).
        czz = g.pw("{0} - {1}", inv2zp, inv2zs)
        c1 = g.pw("{0} - 0.5", shalf)
        c2 = g.pw("{0} - {1}", hzs, hzp)
        hrho = g.pw("0.5 * {0}", invrho)
        ncw = [g.pw("{0} * {1}", nc[i], sjw) for i in range(dim)]
        shw = g.pw("{0} * {1}", shalf, sjw)
        hzsrw = g.pw("{0} * {1} * {2}", hzs, invrho, sjw)
        nnw = [g.pw("-{0}", ncw[i]) for i in range(dim)]

        def side(qT: int) -> Tuple[List[int], List[int], int, int]:
            m, E, tr = self._q_fields(qT)
            T = [
                self._mac(
                    [(ct[c], E[self.vk[i, c]]) for c in range(dim)] + [(cln[i], tr)]
                )
                for i in range(dim)
            ]
            Tn = self._mac([(nc[i], T[i]) for i in range(dim)])
            vn = self._mac([(cvn[i], m[i]) for i in range(dim)])
            return m, T, Tn, vn

        mm, Tm, Tmn, vmn = side(qmT)
        if qpT is None:
            invzs = g.pw("2.0 * {0}", inv2zs)
            if bc == "free":
                a = g.pw("{0} * {1}", g.pw("{0} - 2.0 * {1}", invzs, inv2zp), Tmn)
                comps = [g.pw("np.zeros_like({0})", sjw)] * dim
            else:  # mirror
                a = g.pw("{0} * {1} - {2}", invzs, Tmn, vmn)
                zvt = g.pw("{0} * {1} - {2}", zp, vmn, Tmn)
                comps = [g.pw("{0} * {1}", ncw[i], zvt) for i in range(dim)]
            vstar = [
                g.pw("{0} * {1} + {2} * {3} - {4} * {5}", a, nc[i], invrho, mm[i], invzs, Tm[i])
                for i in range(dim)
            ]
        else:
            mp, Tp, Tpn, vpn = side(qpT)
            TnS = g.pw("{0} + {1}", Tmn, Tpn)
            dTn = g.pw("{0} - {1}", Tpn, Tmn)
            dvn = g.pw("{0} - {1}", vpn, vmn)
            S_v = g.pw("{0} * {1}", czz, dTn)
            S_m = g.pw("{0} * {1} + {2} * {3}", c1, TnS, c2, dvn)
            Tsum = [g.pw("{0} + {1}", Tm[i], Tp[i]) for i in range(dim)]
            Tdiff = [g.pw("{0} - {1}", Tp[i], Tm[i]) for i in range(dim)]
            msum = [g.pw("{0} + {1}", mm[i], mp[i]) for i in range(dim)]
            mdiff = [g.pw("{0} - {1}", mp[i], mm[i]) for i in range(dim)]
            vstar = [
                g.pw(
                    "{0} * {1} + {2} * {3} + {4} * {5}",
                    S_v, nc[i], hrho, msum[i], inv2zs, Tdiff[i],
                )
                for i in range(dim)
            ]
            comps = [
                g.pw(
                    "{0} * {1} - {2} * {3} - {4} * {5}",
                    S_m, ncw[i], shw, Tsum[i], hzsrw, mdiff[i],
                )
                for i in range(dim)
            ]
        for i, j in self.pairs:
            if i == j:
                comps.append(g.pw("{0} * {1}", nnw[i], vstar[i]))
            else:
                comps.append(self._half_mac(nnw[i], vstar[j], nnw[j], vstar[i]))
        return g.stack(*comps)

    # --- advection ---------------------------------------------------------

    def _vn(self, n: int, xf: int) -> int:
        g = self.g
        return g.einsum("...c,...c->...", self._velocity(xf), self._nsl(n))

    def _velocity(self, x: int) -> int:
        """The advection velocity table at ``x`` (time-invariant by contract)."""
        return self.g.extern("velocity", x, like=f"np.ones({{0}}.shape[:-1] + ({self.dim},))")

    def volume_flux(self, q: int, x: int) -> int:
        """F(q, x) exactly as ``AdvectionModel.volume_flux`` computes it."""
        return self.g.pw("{0}[..., :, None] * {1}[..., None, :]", q, self._velocity(x))

    def numerical_flux(self, qm: int, qp: int, n: int, xf: int) -> int:
        """F*.n(qm, qp, n) exactly as ``AdvectionModel.numerical_flux`` computes it."""
        g = self.g
        vn = self._vn(n, xf)
        hvn = g.pw("0.5 * {0}[..., None]", vn)
        havn = g.pw("0.5 * np.abs({0})[..., None]", vn)
        central = g.pw("{0} * ({1} + {2})", hvn, qm, qp)
        upwind = g.pw("{0} * ({1} - {2})", havn, qm, qp)
        return g.pw("{0} + {1}", central, upwind)

    def boundary_state(self, qm: int, n: int, xf: int) -> int:
        """Exterior trace exactly as ``AdvectionModel.boundary_state`` computes it."""
        g = self.g
        bmask = g.pw("{0}[..., None] < 0", self._vn(n, xf))
        return g.pw("np.where({0}, {1}, {2})", bmask, self.inflow, qm)


def lower_dg_rhs(dim: int, degree: int, nfields: int, kind: str) -> Graph:
    """The dG RHS graph: volume + face regions + mass-inverse tail.

    The kernel contract is ``kernel(q_local, q_all, P) -> r`` on
    3D-shaped fields ``(ne, npts, nfields)``; the ghost exchange and the
    2D squeeze/unsqueeze stay in the caller (communication never enters
    a compiled kernel), and neither kind reads ``t`` or the model.
    Every leaf declares its shape; the coordinate tables are declared at
    ``dim`` components (only the bind-time model queries read them, and
    their stand-ins' shapes do not depend on the last axis).
    """
    if kind not in DG_KINDS:
        raise ValueError(f"unknown dG lowering kind: {kind!r}")
    nq = degree + 1
    npts = nq**dim
    nfp = nq ** (dim - 1)
    nf = nfields
    g = Graph()
    q = g.arg("q_local", ("e", npts, nf))
    qa = g.arg("q_all", ("a", npts, nf))
    x = g.table("x", ("e", npts, dim))
    jinv = g.table("jinv", ("e", npts, dim, dim))
    detj = g.table("detj", ("e", npts))
    wts = g.table("weights", (npts,))
    D = g.table("D", (nq, nq))
    wf = g.table("wf", (nfp,))
    lift = g.table("lift", ("e", npts))
    ml = _ModelLowering(g, kind, dim)

    # Volume: r = sum_a D_a^T [ (jinv_a . F) * w detJ ]  (dg.DGSolver._volume)
    shape_in = ", ".join(["-1"] + [str(nq)] * dim + [str(nf)])
    if kind == "elastic":
        # Linear-flux fast path: contract metric, material and
        # quadrature factors into per-axis coefficient tables at bind
        # time; no F or sigma tensor is ever materialized.  On planes
        # ``(nf, e, z, y, x)`` the contracted index of axis ``a`` sits
        # before a contiguous trailing block of ``nq**a`` points, so a
        # flat reshape exposes D^T as one GEMM along x and one batched
        # BLAS matmul along the other axes.  The axis-0 contribution
        # *initializes* the sum (no zeros + accumulate pass), and the
        # returned array is written once, by the transpose back.
        dw = g.pw("{0} * {1}[None, :]", detj, wts)
        dt = g.pw("np.ascontiguousarray({0}.T)", D)
        qT = ml.planes(q)
        rT = -1
        for a in range(dim):
            ja = g.pw(f"{{0}}[:, :, {a}, :]", jinv)
            Fa = ml.elastic_volume_axis(qT, x, ja, dw)
            if a == 0:
                product = f"np.matmul({{1}}.reshape(-1, {nq}), {{0}})"
                contrib = g.pw(f"{product}.reshape({nf}, -1, {npts})", D, Fa)
            else:
                product = f"np.matmul({{0}}, {{1}}.reshape(-1, {nq}, {nq**a}))"
                contrib = g.pw(f"{product}.reshape({nf}, -1, {npts})", dt, Fa)
            if rT < 0:
                rT = contrib
            else:
                g.iop("+", rT, contrib)
        r = g.pw("np.empty({0}.shape)", q)  # C-ordered: the tail's lift writes r's flat view
        g.setitem(r, ":", g.pw("np.moveaxis({0}, 0, -1)", rT))
    else:
        # C-ordered whatever q's layout: the tail's lift writes r's flat view.
        r = g.pw("np.zeros({0}.shape)", q)
        F = ml.volume_flux(q, x)
        detw = g.pw("({0} * {1}[None, :])[..., None]", detj, wts)
        for a in range(dim):
            ja = g.pw(f"{{0}}[:, :, {a}, :]", jinv)
            Fa = g.pw("{0} * {1}", g.einsum("epc,epfc->epf", ja, F), detw)
            gre = g.pw(f"{{0}}.reshape({shape_in})", Fa)
            out = g.einsum(_DT_SUBS[(dim, a)], D, gre)
            g.iop("+", r, g.pw(f"{{0}}.reshape(-1, {npts}, {nf})", out))

    indices = {"gm": ("b", nfp), "gp": ("b", nfp), "pos": ("b",), "pp": ("b",)}

    def batch_leaves(*names: str) -> List[int]:
        shapes = {
            "n": ("b", nfp, dim), "sj": ("b", nfp), "xf": ("b", nfp, dim),
            "tr": (nfp, nfp), **indices,
        }
        return [g.barg(nm, shapes[nm], index=nm in indices) for nm in names]

    if kind == "elastic":
        # Faces on planes too: one take per trace over flat node indices
        # (``gm``/``gp``, row-major: each row's nf values are contiguous),
        # one transpose in, the mortar products as one GEMM over all
        # planes, and the lifted planes deposited through a transposed
        # view: the deposit's store is the one transpose out.
        def trace(rows: int) -> int:
            take = f"np.take({{0}}.reshape(-1, {nf}), {{1}}, axis=0, mode='clip')"
            return ml.planes(g.pw(take, qa, rows))

        def mortar(planes: int, mat: int) -> int:
            product = f"np.matmul({{0}}.reshape(-1, {nfp}), {{1}})"
            return g.pw(f"{product}.reshape({nf}, -1, {nfp})", planes, mat)

        def lifted(qmT: int, qpT: Optional[int], n: int, sj: int, xf: int, bc: str = "") -> int:
            sjw = g.pw("{0} * {1}[None, :]", sj, wf)
            return ml.elastic_face_out(qmT, qpT, n, sjw, xf, bc)

        def deposit(pos: int, planes: int) -> None:
            g.deposit(pos, g.pw("np.moveaxis({0}, 0, -1)", planes))

        # One-sided faces: a ghost partner, a self-adjacent face.
        g.region("face_cf")
        gm, gp, pos, n, sj, xf, tr = batch_leaves("gm", "gp", "pos", "n", "sj", "xf", "tr")
        trT = g.pw("np.ascontiguousarray({0}.T)", tr)
        deposit(pos, lifted(trace(gm), mortar(trace(gp), trT), n, sj, xf))

        # Boundary faces, one region per boundary condition.
        for region, bc in (("face_b", "free"), ("face_mirror", "mirror")):
            g.region(region)
            gm, pos, n, sj, xf = batch_leaves("gm", "pos", "n", "sj", "xf")
            deposit(pos, lifted(trace(gm), None, n, sj, xf, bc))

        g.region("face_coarse")
        gm, gp, pos, n, sj, xf, tr = batch_leaves("gm", "gp", "pos", "n", "sj", "xf", "tr")
        trT = g.pw("np.ascontiguousarray({0}.T)", tr)
        out = lifted(mortar(trace(gm), trT), trace(gp), n, sj, xf)
        deposit(pos, mortar(out, tr))

        # Paired faces: every interface whose two sides are both local
        # is evaluated ONCE (the reference visits it from each side).  By
        # conservation the plus side's lift is the negated minus side's —
        # same interface, opposite outward normal — so one flux feeds two
        # deposits.  Conforming pairs have their orientation permutation
        # folded into ``gp`` at bind (no mortar product); a 2:1 pair is
        # evaluated at the fine side's nodes and lifts into the coarse
        # side through the negated transposed interpolation.
        g.region("face_pair")
        gm, gp, pos, pp, n, sj, xf = batch_leaves("gm", "gp", "pos", "pp", "n", "sj", "xf")
        out = lifted(trace(gm), trace(gp), n, sj, xf)
        deposit(pos, out)
        deposit(pp, g.pw("-{0}", out))

        g.region("face_hang")
        gm, gp, pos, pp, n, sj, xf, tr = batch_leaves(
            "gm", "gp", "pos", "pp", "n", "sj", "xf", "tr"
        )
        trT = g.pw("np.ascontiguousarray({0}.T)", tr)
        out = lifted(trace(gm), mortar(trace(gp), trT), n, sj, xf)
        deposit(pos, out)
        deposit(pp, mortar(out, g.pw("-{0}", tr)))
    else:
        # A face batch here is every mortar of one region that shares one
        # transfer matrix (prepare_dg_rhs merges them), so ``gm``/``gp``
        # name each row's face nodes as flat node indices
        # ``elem * npts + node``.  The take runs over the node-major table
        # (``gm.T``) into a (nodes, rows, fields) block that is viewed
        # back as (rows, nodes, fields): exactly the strides of the
        # reference's two-step gather ``q_all[em][:, fidx]``, so every
        # mortar c_einsum sums in the reference's order (a row-major take
        # moves sums by an ulp).
        def trace(idx: int) -> int:
            take = f"np.take({{0}}.reshape(-1, {nf}), {{1}}.T, axis=0, mode='clip')"
            return g.pw(f"{take}.transpose(1, 0, 2)", qa, idx)

        def flux_and_lift(qm: int, qp: int, n: int, sj: int, xf: int) -> int:
            flux = ml.numerical_flux(qm, qp, n, xf)
            sjwf = g.pw("({0} * {1}[None, :])[..., None]", sj, wf)
            return g.pw("{0} * {1}", flux, sjwf)

        # Every region deposits its lifted rows at their reference
        # positions; the tail lifts them all in the reference's order.
        # Conforming / fine mortars: evaluate at my face nodes.
        g.region("face_cf")
        gm, gp, pos, n, sj, xf, tr = batch_leaves("gm", "gp", "pos", "n", "sj", "xf", "tr")
        qp = g.einsum("qs,esf->eqf", tr, trace(gp))
        g.deposit(pos, flux_and_lift(trace(gm), qp, n, sj, xf))

        # Boundary faces: exterior trace from the model's boundary condition.
        g.region("face_b")
        gm, pos, n, sj, xf = batch_leaves("gm", "pos", "n", "sj", "xf")
        qm = trace(gm)
        qp = ml.boundary_state(qm, n, xf)
        g.deposit(pos, flux_and_lift(qm, qp, n, sj, xf))

        # Coarse mortars: evaluate at the fine partner's nodes, lift
        # through the transposed interpolation.
        g.region("face_coarse")
        gm, gp, pos, n, sj, xf, tr = batch_leaves("gm", "gp", "pos", "n", "sj", "xf", "tr")
        qm = g.einsum("qs,esf->eqf", tr, trace(gm))
        contrib = flux_and_lift(qm, trace(gp), n, sj, xf)
        g.deposit(pos, g.einsum("qi,eqf->eif", tr, contrib))

    # Tail: the staged face lifts, then the inverse diagonal mass.
    g.region("tail")
    g.lift(r)
    g.iop("*", r, g.pw("{0}[..., None]", lift))
    g.ret(r)
    return g


# --- Bind providers ---------------------------------------------------------


def dg_tables(solver, model, kind: str) -> Dict[str, object]:
    """Global bind environment for a dG graph, from the reference solver.

    ``solver`` is the interpreted :class:`~repro.mangll.dg.DGSolver`
    the bound operator keeps as its fallback — reusing its precomputed
    arrays guarantees the compiled path sees byte-identical inputs.
    """
    m = solver.space.mesh
    nl = m.nelem_local
    env: Dict[str, object] = {
        "x": m.coords[:nl],
        "jinv": m.jinv[:nl],
        "detj": m.detj[:nl],
        "weights": m.weights,
        "D": solver._D,
        "wf": solver._wf,
        "lift": solver._lift,
    }
    if kind == "advection":
        env["inflow"] = model._inflow
    return env


def dg_batch_envs(solver) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Per-mortar-batch bind environments, yielded in ``space.batches`` order.

    Mirrors ``DGSolver._faces`` exactly: minus-side geometry for
    conforming/fine/boundary mortars, negated plus-side geometry for
    coarse mortars.  Batch order is load-bearing — faces of one element
    share edge/corner nodes, so lifts must accumulate in this order.
    Normals and surface Jacobians come from ``Mesh.face_normals``, each
    face's held from the first batch that reads them to the last.
    """
    sp = solver.space
    m = sp.mesh
    dim, nq = sp.dim, sp.nq
    # The face whose nodes each batch evaluates its flux at.
    geo = [b.fplus if b.kind == COARSE else b.fminus for b in sp.batches]
    last = {f: i for i, f in enumerate(geo)}
    tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for i, (batch, f) in enumerate(zip(sp.batches, geo)):
        normals, sjac = tables.pop(f, None) or m.face_normals(f)
        if last[f] > i:
            tables[f] = normals, sjac
        coarse = batch.kind == COARSE
        rows = batch.eplus if coarse else batch.eminus
        env: Dict[str, object] = {
            "fidx": face_node_indices(dim, nq, batch.fminus),
            "em": batch.eminus,
            "n": -normals[rows] if coarse else normals[rows],
            "sj": sjac[rows],
            "xf": m.coords[rows[:, None], face_node_indices(dim, nq, f)],
        }
        if batch.kind != BOUNDARY:
            env.update(pidx=face_node_indices(dim, nq, batch.fplus), ep=batch.eplus)
            env["tr"] = batch.transfer
        yield KIND_REGION[batch.kind], env


def merged_batch_envs(
    solver, nfields: int
) -> Tuple[List[Tuple[str, Dict[str, object]]], np.ndarray]:
    """Face-batch environments of the advection kind, and the lift targets.

    The mortar batches of one region whose transfer matrices are
    byte-equal become one batch, and so do all boundary batches: the
    flux is pointwise in the rows, and the mortar product sees the same
    matrix and — through the node-major gather — the same strides.  A
    one-row mortar batch stays alone: with a single row (of a single
    field) the row axis drops out of the mortar ``c_einsum``, which then
    runs its contiguous reduction kernel (other partial sums).  Rows
    keep batch order and carry flat face-node indices ``elem * npts +
    node`` (``gm`` my side, ``gp`` the partner's; stored node-major, as
    a transposed view of a C-ordered ``(nodes, rows)`` table) and their
    position ``pos`` among all face rows in ``space.batches`` order.
    The lift targets (int32) are the flat entries of ``r`` those rows lift
    into, in that order: the reference's accumulation order, which the
    tail's one ``np.subtract.at`` walks.

    Each batch's environment is copied into its group's arrays as it is
    made, so a bind holds one batch's tables at a time, not two copies.
    """
    sp = solver.space
    npts, nfp = sp.mesh.npts, sp.nfp
    keys = []
    sizes: Dict[Tuple[str, bytes, int], int] = {}
    for b, batch in enumerate(sp.batches):
        tr, rows = batch.transfer, len(batch.eminus)
        key = (KIND_REGION[batch.kind], b"", -1)
        if tr is not None:
            key = (key[0], tr.tobytes(), b if rows == 1 else -1)
        keys.append(key)
        sizes[key] = sizes.get(key, 0) + rows
    groups: Dict[Tuple[str, bytes, int], Dict[str, np.ndarray]] = {key: {} for key in sizes}
    filled = dict.fromkeys(sizes, 0)
    targets = np.empty((sum(sizes.values()), nfp, nfields), dtype=np.int32)
    start = 0
    for key, (_, env) in zip(keys, dg_batch_envs(solver)):
        part = {name: env[name] for name in ("n", "sj", "xf")}
        part["gm"] = env["em"][:, None] * npts + env["fidx"][None, :]
        if "ep" in env:
            part["gp"] = env["ep"][:, None] * npts + env["pidx"][None, :]
        rows = len(env["em"])
        part["pos"] = np.arange(start, start + rows)
        targets[start : start + rows] = part["gm"][..., None] * nfields + np.arange(nfields)
        start += rows
        grp, at = groups[key], filled[key]
        filled[key] += rows
        for name, val in part.items():
            if name not in grp:
                shape = (sizes[key],) + val.shape[1:]
                if name in ("gm", "gp"):
                    grp[name] = np.empty(shape[::-1], val.dtype).T  # node-major
                else:
                    grp[name] = np.empty(shape, val.dtype)
            grp[name][at : at + rows] = val
        if "tr" in env:
            grp["tr"] = env["tr"]
    return [(key[0], grp) for key, grp in groups.items()], targets.reshape(-1)


#: Elastic boundary condition -> the face region it is lowered in.
ELASTIC_BC_REGION = {"free": "face_b", "mirror": "face_mirror"}


def elastic_batch_envs(
    solver, nfields: int
) -> Tuple[List[Tuple[str, Dict[str, object]]], np.ndarray]:
    """Face-batch environments of the elastic kind, and the lift targets.

    Every interface with both sides local is one *pair* row, evaluated
    once: a conforming face from its lower-numbered element (orientation
    permutation folded into ``gp``: region ``face_pair``), a 2:1 face
    from its fine side (``face_hang``).  The mirror rows — conforming
    rows from the higher element, COARSE rows whose fine partner is
    local — are dropped.  Faces with a ghost partner and self-adjacent
    faces stay one-sided (``face_cf`` / ``face_coarse``), and boundary
    rows go to the region of the model's boundary condition.  Rows merge
    per (region, transfer matrix), so all conforming pairs are one batch,
    and carry row-major flat node indices ``gm``/``gp``, their lift-buffer
    row ``pos`` and, for a pair, its other side's ``pp``.
    """
    sp = solver.space
    m = sp.mesh
    nl, npts, nall = m.nelem_local, m.npts, len(m.coords)
    batches = sp.batches

    def hang_key(fine: np.ndarray, coarse: np.ndarray, face: int) -> np.ndarray:
        return (fine * nall + coarse) * (2 * sp.dim) + face

    # 2:1 faces seen from both sides, i.e. with both sides local.
    fine = [hang_key(b.eminus, b.eplus, b.fminus) for b in batches if b.kind == FINE]
    coarse = [hang_key(b.eplus, b.eminus, b.fplus) for b in batches if b.kind == COARSE]
    none = np.empty(0, dtype=np.int64)
    hung = np.intersect1d(np.concatenate([none, *fine]), np.concatenate([none, *coarse]))
    perms = [permutation_rows(b.transfer) if b.kind == CONFORMING else None for b in batches]
    pair_conforming = all(p is not None for b, p in zip(batches, perms) if b.kind == CONFORMING)
    groups: Dict[Tuple[str, bytes], Tuple[Optional[np.ndarray], List[Dict]]] = {}

    def put(region: str, tr, part: Dict[str, np.ndarray], rows: np.ndarray) -> None:
        if rows.any():
            key = (region, b"" if tr is None else tr.tobytes())
            groups.setdefault(key, (tr, []))[1].append({k: v[rows] for k, v in part.items()})

    for batch, perm, (region, env) in zip(batches, perms, dg_batch_envs(solver)):
        em, tr = env["em"], env.get("tr")
        part = {name: env[name] for name in ("n", "sj", "xf")}
        part["gm"] = em[:, None] * npts + env["fidx"][None, :]
        every = np.ones(len(em), dtype=bool)
        if batch.kind == BOUNDARY:
            put(ELASTIC_BC_REGION[solver.model.bc], None, part, every)
            continue
        ep, pidx = env["ep"], env["pidx"]
        part["gp"] = ep[:, None] * npts + pidx[None, :]
        if batch.kind == CONFORMING and pair_conforming:
            local = (ep < nl) & (em != ep)
            put("face_pair", None, dict(part, gp=ep[:, None] * npts + pidx[perm][None, :]),
                local & (em < ep))
            put(region, tr, part, ~local)
        elif batch.kind == FINE:
            hang = np.isin(hang_key(em, ep, batch.fminus), hung)
            put("face_hang", tr, part, hang)
            put(region, tr, part, ~hang)
        elif batch.kind == COARSE:
            put(region, tr, part, ~np.isin(hang_key(ep, em, batch.fplus), hung))
        else:
            put(region, tr, part, every)

    envs: List[Tuple[str, Dict[str, np.ndarray]]] = []
    targets: List[np.ndarray] = [np.empty((0, sp.nfp), dtype=np.int64)]
    start = 0
    for (region, _), (tr, parts) in groups.items():
        grp = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        sides = ("gm", "gp") if region in ("face_pair", "face_hang") else ("gm",)
        for name, side in zip(("pos", "pp"), sides):
            grp[name] = np.arange(start, start + len(grp[side]))
            start += len(grp[side])
            targets.append(grp[side])
        if tr is not None:
            grp["tr"] = tr
        envs.append((region, grp))
    # Lift-buffer rows in element order: the lift then walks r nearly
    # sequentially (~1.3x faster than in batch order).
    tgt = np.concatenate(targets)
    order = np.argsort(tgt[:, 0], kind="stable")
    rank = np.argsort(order)
    for _, grp in envs:
        for name in ("pos", "pp"):
            if name in grp:
                grp[name] = rank[grp[name]]
    tgt = tgt[order].astype(np.int32)
    return envs, (tgt[..., None] * nfields + np.arange(nfields, dtype=np.int32)).reshape(-1)


def permutation_rows(tr: np.ndarray) -> Optional[np.ndarray]:
    """Row map ``p`` with ``tr @ v == v[p]``, or None if not a permutation.

    Conforming mortar transfer matrices are node-orientation
    permutations; folding them into the plus-side gather indices
    (``pidx[p]``) lets the elastic ``face_pair`` region skip the mortar
    matmul entirely.  Pure data movement — exact for any kind, used
    only by the tolerance-validated elastic one.
    """
    if tr.ndim != 2 or tr.shape[0] != tr.shape[1]:
        return None
    if not ((tr == 0.0) | (tr == 1.0)).all():
        return None
    if (tr.sum(axis=0) != 1.0).any() or (tr.sum(axis=1) != 1.0).any():
        return None
    return tr.argmax(axis=1)


def model_kind(model) -> str:
    """The lowering kind a flux model's own class declares.

    Only ``vars(type(model))`` counts, never an inherited attribute: a
    subclass may override the flux methods, and lowering it from its
    base class's physics would compute something else.  Any model whose
    class does not itself declare one of :data:`DG_KINDS` cannot be
    compiled (``TypeError``); ``compile=False`` runs it interpreted.
    """
    kind = vars(type(model)).get("lowering_kind")
    if kind not in DG_KINDS:
        raise TypeError(
            f"{type(model).__name__} declares no lowering_kind in {DG_KINDS}: "
            "bind it with compile=False to run the interpreted reference"
        )
    return kind
