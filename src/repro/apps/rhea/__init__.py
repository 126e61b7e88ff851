"""Rhea: adaptive mantle convection (§IV-A).

Q1 finite elements for velocity/pressure/temperature on the 24-octree
shell (or unit-box test domains), nonlinear temperature- and strain-rate-
dependent rheology with yielding and plate-boundary weak zones, pressure-
projection-stabilized Stokes solved by MINRES with a smoothed-aggregation
AMG V-cycle on the (1,1) block and BFBT on the (2,2) block (in place of
the paper's inverse-viscosity pressure mass), SUPG-stabilized energy
transport, Picard
(lagged-viscosity) nonlinear iterations, and dynamic AMR interleaved with
the nonlinear solve.

Substitutions versus the paper's production setup are documented in
DESIGN.md: no-slip instead of free-slip on the curved shell boundaries,
synthetic temperature/plate-boundary input fields, and serial AMG (the
scaling table of Fig. 7 is regenerated through the performance model).
"""

from repro.apps.rhea.rheology import Rheology, PlateModel, synthetic_temperature
from repro.apps.rhea.stokes import StokesProblem, StokesResult
from repro.apps.rhea.driver import RheaConfig, RheaRun

__all__ = [
    "Rheology",
    "PlateModel",
    "synthetic_temperature",
    "StokesProblem",
    "StokesResult",
    "RheaConfig",
    "RheaRun",
]
