"""Linear solvers: Krylov methods, smoothed-aggregation AMG, and the
block preconditioner for variable-viscosity Stokes (§IV-A).

These stand in for the PETSc/Trilinos-ML stack of the paper's Rhea code:
MINRES preconditioned by one AMG V-cycle on the (1,1) block and, on the
(2,2) block, BFBT with one AMG V-cycle per ``L^-1``
(:class:`repro.apps.rhea.stokes.BFBTPreconditioner`).
"""

from repro.solvers.krylov import cg, gmres, minres
from repro.solvers.amg import AMGHierarchy, smoothed_aggregation

__all__ = ["cg", "minres", "gmres", "AMGHierarchy", "smoothed_aggregation"]
