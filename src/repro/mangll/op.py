"""The operator frontend of mangll: declarative specs, bound operators.

Applications describe the dG operator they want as a small frozen spec
and *bind* it to a mesh::

    ctx = MeshContext(forest, ghost, mesh, comm)
    L = DGOperator(model, degree=3).bind(ctx)
    dq = L.rhs(q, t)

Binding chooses between two interchangeable executions:

* **compiled** (the default) — the spec is lowered through
  :mod:`repro.mangll.compiler` into a specialized flat NumPy kernel per
  ``(dim, degree, nfields, model-kind)``, with mesh- and model-dependent
  invariants (metric terms, face masks, velocity and material
  coefficients) hoisted into a bind-time ``P`` dict: the kernel never
  calls the model.  Only a model whose class declares its own
  ``lowering_kind`` compiles; any other raises ``TypeError`` at bind.
  Compiled kernels are bit-identical to the interpreted reference —
  except the elastic kind, whose fast path is mathematically
  equivalent under a documented <= 1e-13 relative tolerance (see
  docs/KERNELS.md) — and communication-free by
  construction (an AST guard enforces it); the one ghost exchange per
  ``rhs`` stays in this frontend, where the collective sanitizer and
  spmdlint can see it.
* **interpreted** (``compile=False`` on the spec) — the bound operator
  runs the hand-written reference :class:`~repro.mangll.dg.DGSolver`
  the compiled kernels are tested against, for any flux model.

The continuous-Galerkin space (:class:`~repro.mangll.cgops.CGSpace`)
and field transfer (:func:`~repro.mangll.transfer.transfer_nodal_fields`)
have one implementation each and are used directly.

Compilation and bind-evaluation run inside the ``Compile`` trace phase;
``rhs`` keeps the reference's ``Apply`` phase label, so Figure-7 style
breakdowns stay comparable across modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.mangll import compiler as kc
from repro.mangll.dg import DGSolver
from repro.mangll.dgops import DGSpace
from repro.parallel.collectives import collective
from repro.parallel.comm import Comm
from repro.trace.tracer import PHASE_APPLY, PHASE_COMPILE, phase

__all__ = ["MeshContext", "DGOperator", "BoundDGOperator"]


# --- Mesh context -----------------------------------------------------------


@dataclass(frozen=True)
class MeshContext:
    """Everything an operator bind needs to know about the mesh."""

    forest: Any
    ghost: Any
    mesh: Any
    comm: Comm


# --- dG ---------------------------------------------------------------------


@dataclass(frozen=True)
class DGOperator:
    """Spec for the semi-discrete dG operator ``dq/dt = L(q, t)``.

    ``compile=False`` binds the interpreted reference instead of the
    compiled kernel; it is the only way to run a model whose class does
    not declare its own ``lowering_kind``.
    """

    model: Any
    degree: int
    compile: bool = True

    def bind(self, ctx: MeshContext) -> "BoundDGOperator":
        """Bind to a mesh: build the space, precompute, maybe compile."""
        space = DGSpace(ctx.forest, ctx.ghost, ctx.mesh, self.degree)
        return BoundDGOperator(space, self.model, ctx.comm, self.compile)


class BoundDGOperator:
    """The dG operator bound to one mesh, compiled or interpreted.

    Keeps the reference :class:`DGSolver` either way — its precomputed
    geometric tables feed the compiled kernel's bind stage, and
    ``stable_dt`` / ``integrate_quantity`` (cheap, reduction-bound)
    always run interpreted.

    A compiled binding owns one workspace (``P["ws"]``, allocated here,
    at bind) that every block of every ``rhs`` call computes in, and one
    lift buffer (``P["lb"]``) its face batches stage their lifts in: the
    array ``rhs`` returns is fresh each time, but two ``rhs`` calls on
    *one* binding must not overlap.  Bind the spec again for a second
    concurrent user — bindings share nothing.
    """

    def __init__(self, space: DGSpace, model: Any, comm: Comm, compile: bool) -> None:
        self.space = space
        self.model = model
        self.comm = comm
        self.solver = DGSolver(space, model, comm)
        self._kernel: Optional[Callable[..., np.ndarray]] = None
        self._P: Optional[Dict[str, Any]] = None
        if compile:
            with phase(PHASE_COMPILE):
                kind = kc.model_kind(model)
                compiled = kc.compile_dg_rhs(
                    space.dim, space.degree, model.nfields, kind
                )
                self._P = kc.prepare_dg_rhs(compiled, self.solver, model)
                self._kernel = compiled.fn("kernel")
                self.kernel_key = compiled.key

    @property
    def dim(self) -> int:
        """Spatial dimension of the bound mesh."""
        return self.space.dim

    @property
    def degree(self) -> int:
        """Polynomial degree of the bound space."""
        return self.space.degree

    @collective("method", "rhs")
    def rhs(self, q_local: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Evaluate dq/dt (collective: one ghost exchange).

        Only the interpreted reference reads ``t``: neither lowered kind
        depends on time.
        """
        if self._kernel is None:
            return self.solver.rhs(q_local, t)
        with phase(PHASE_APPLY):
            squeeze = q_local.ndim == 2
            if squeeze:
                q_local = q_local[..., None]
            q_all = self.space.exchange_ghost_fields(self.comm, q_local)
            r = self._kernel(q_local, q_all, self._P)
            return r[..., 0] if squeeze else r

    @collective("method", "stable_dt")
    def stable_dt(self, q_local: np.ndarray, cfl: float = 0.3) -> float:
        """Global CFL time-step bound (collective allreduce MIN)."""
        return self.solver.stable_dt(q_local, cfl)

    @collective("method", "integrate_quantity")
    def integrate_quantity(self, q_local: np.ndarray) -> np.ndarray:
        """Global integral of each field (collective allreduce)."""
        return self.solver.integrate_quantity(q_local)
