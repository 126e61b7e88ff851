"""The mangll kernel compiler, after the ffcx blueprint.

Lower -> plan -> emit -> cache:

* :mod:`~repro.mangll.compiler.ir` — the typed tensor IR (einsum,
  pointwise, stack, bind-time model queries; explicit mutation
  statements).
* :mod:`~repro.mangll.compiler.lower` — the dG RHS of the two model
  kinds the apps run (``advection``, ``elastic``) written into the IR,
  preserving the interpreted reference's exact float semantics.
* :mod:`~repro.mangll.compiler.passes` — CSE, loop-invariant hoisting
  (bind/run staging), fusion (single-use inlining), and buffer planning
  (liveness, workspace slots, block size).
* :mod:`~repro.mangll.compiler.emit` — flat NumPy source emission
  (blocked regions, ``out=`` forms), the bind-stage evaluator, and the
  communication-freedom AST guard.
* :mod:`~repro.mangll.compiler.cache` — in-memory + on-disk source
  cache with versioned fingerprints.

This module is the facade: :func:`compile_dg_rhs` returns a cached
:class:`CompiledKernel` per specialization key, and
:func:`prepare_dg_rhs` evaluates its bind-stage values against one
concrete mesh/model into the ``P`` dict the kernel consumes.  A compiled dG kernel is
``kernel(q_local, q_all, P)``: it never calls the model, whose queries
(the advection velocity, the elastic material) run once, at bind.  Apps
never call these directly — they go through :mod:`repro.mangll.op`.
Only the dG RHS is compiled: the continuous-Galerkin element kernels
and field transfer have one (reference) implementation each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Optional

import numpy as np

from .cache import IR_VERSION, KernelCache, default_cache
from .emit import (
    FACE_K,
    Analysis,
    BindEvaluator,
    CompileError,
    Emitter,
    analyze,
    assert_communication_free,
)
from .lower import (
    DG_KINDS,
    dg_cache_key,
    dg_tables,
    elastic_batch_envs,
    lower_dg_rhs,
    merged_batch_envs,
    model_kind,
)

__all__ = [
    "DG_KINDS",
    "IR_VERSION",
    "KernelCache",
    "CompileError",
    "CompiledKernel",
    "default_cache",
    "model_kind",
    "compile_dg_rhs",
    "prepare_dg_rhs",
]


@dataclass
class CompiledKernel:
    """One compiled, cached kernel module plus its bind-side metadata."""

    key: str
    module: Dict[str, Any]
    #: per-function IR analyses, keyed by entry-point name
    analyses: Dict[str, Analysis]
    #: extra metadata the prepare step needs (e.g. the dG model kind)
    meta: Dict[str, Any]

    def fn(self, name: str) -> Callable[..., Any]:
        """The kernel entry point called ``name``."""
        return self.module[name]


# --- dG RHS -----------------------------------------------------------------

_DG_PARAMS = ("q_local", "q_all", "P")
_DG_PROLOGUE = ("ne = q_local.shape[0]",)


@lru_cache(maxsize=None)
def _dg_analysis(dim: int, degree: int, nfields: int, kind: str) -> Analysis:
    """One (immutable) analysis per specialization: every bind needs it."""
    return analyze(lower_dg_rhs(dim, degree, nfields, kind))


def compile_dg_rhs(
    dim: int,
    degree: int,
    nfields: int,
    kind: str,
    cache: Optional[KernelCache] = None,
) -> CompiledKernel:
    """Compile the dG RHS for one ``(dim, degree, nfields, kind)``."""
    cache = cache if cache is not None else default_cache()
    key = dg_cache_key(dim, degree, nfields, kind)
    analysis = _dg_analysis(dim, degree, nfields, kind)

    def build() -> str:
        return Emitter(analysis).emit("kernel", _DG_PARAMS, _DG_PROLOGUE)

    module = cache.get(key, build, validate=lambda b: assert_communication_free(b, key))
    return CompiledKernel(
        key=key, module=module, analyses={"kernel": analysis}, meta={"kind": kind}
    )


def prepare_dg_rhs(compiled: CompiledKernel, solver: Any, model: Any) -> Dict[str, Any]:
    """Evaluate bind-stage values for one mesh/model into the ``P`` dict.

    ``solver`` is the interpreted reference ``DGSolver`` the bound
    operator keeps — its precomputed tables feed the evaluator, so the
    compiled kernel starts from byte-identical inputs.

    The face batches are *merged*: the mortar batches of one region
    whose transfer matrices are byte-equal join one batch, and so do
    all boundary batches.  Their lifted rows land in the lift buffer
    ``P["lb"]``, which the tail applies with one ``np.subtract.at`` at
    the flat int32 targets ``P["lt"]``.  For the advection kind
    (:func:`~repro.mangll.compiler.lower.merged_batch_envs`) that is the
    reference's accumulation order, whatever order the batches run in.
    The elastic kind (:func:`~repro.mangll.compiler.lower.elastic_batch_envs`)
    first *pairs* each interface with both sides local, conforming or
    2:1: one flux, deposited to both elements with opposite signs.  That
    reorders the lift's sums, so only the tolerance-validated kind does it.

    ``P["ws"]`` is the binding's workspace: one flat array every planned
    region's temporaries are slots of, sized here from the analysis
    (items per block row) and this mesh (how many rows a block of each
    region can actually have).  It, and the lift buffer, belong to this
    ``P`` alone — two bindings never share one, and one binding's
    ``rhs`` is not reentrant.
    """
    kind = compiled.meta["kind"]
    an = compiled.analyses["kernel"]
    ev = BindEvaluator(an, dg_tables(solver, model, kind), model)
    P = ev.global_bind()
    nl = solver.space.mesh.nelem_local
    fb = []
    rows = {"main": nl}

    def slot(region: str, env: Dict[str, Any], nrows: int) -> None:
        B = ev.batch_bind(region, env)
        B["k"] = FACE_K[region]
        # A batch larger than the region's block enters the kernel as
        # consecutive chunks (row slices of its tables, in order) — never
        # a one-row chunk out of a longer batch: a mortar einsum sums a
        # single row differently (see lower.merged_batch_envs).
        rc = an.regions[region]
        step = rc.rows if rc.rows is not None else max(nrows, 1)
        cuts = list(range(0, max(nrows, 1), step)) + [nrows]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1 and step > 2:
            cuts[-2] -= 1
        for i0, i1 in zip(cuts[:-1], cuts[1:]):
            chunk = dict(B)
            for cid in rc.row_tables:
                chunk[f"v{cid}"] = B[f"v{cid}"][i0:i1]
            chunk["n"] = i1 - i0
            rows[region] = max(rows.get(region, 0), chunk["n"])
            fb.append(chunk)

    nf = solver.model.nfields
    if nl * solver.space.mesh.npts * nf > 2**31:
        raise ValueError(f"{nl} elements of {nf} fields: lift targets exceed int32")
    batch_envs = elastic_batch_envs if kind == "elastic" else merged_batch_envs
    envs, P["lt"] = batch_envs(solver, nf)
    for region, env in envs:
        slot(region, env, len(env["pos"]))
    # One value per lift target: (lifted face rows, face nodes, fields).
    P["lb"] = np.empty(len(P["lt"])).reshape(-1, solver.space.nfp, nf)
    P["fb"] = fb
    P["ws"] = np.empty(an.workspace_items(rows))
    return P
