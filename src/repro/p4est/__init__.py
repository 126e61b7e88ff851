"""Forest-of-octrees parallel AMR: the paper's core contribution.

This package reimplements the ``p4est`` algorithm suite of Burstedde,
Wilcox & Ghattas: distributed linear octrees glued into a forest over an
arbitrary conforming macro-mesh of (logical) cubes, with the seven public
operations of the paper —

``new`` / ``refine`` / ``coarsen`` / ``partition`` / ``balance`` /
``ghost`` / ``nodes``

— plus owner search over the space-filling curve.  Everything here is
integer arithmetic; geometry enters only through :mod:`repro.mangll`.
"""

from repro.p4est.bits import DIM2, DIM3, Dimension, dimension
from repro.p4est.octant import Octant, Octants
from repro.p4est.connectivity import Connectivity
from repro.p4est.forest import Forest
from repro.p4est.balance import balance, is_balanced
from repro.p4est.ghost import GhostLayer, build_ghost
from repro.p4est.facepairs import FacePairs, face_pairs
from repro.p4est.nodes import LNodes, lnodes
from repro.p4est.search import contains_point, find_octants, locate_points
from repro.p4est.checkpoint import ForestCheckpoint, connectivity_digest, field_checksum
from repro.p4est.validate import ForestInvariantError, forest_is_valid, validate_forest
from repro.p4est import builders, checkpoint

__all__ = [
    "DIM2",
    "DIM3",
    "Dimension",
    "dimension",
    "Octant",
    "Octants",
    "Connectivity",
    "Forest",
    "balance",
    "is_balanced",
    "GhostLayer",
    "build_ghost",
    "FacePairs",
    "face_pairs",
    "LNodes",
    "lnodes",
    "contains_point",
    "find_octants",
    "locate_points",
    "builders",
    "checkpoint",
    "ForestCheckpoint",
    "connectivity_digest",
    "field_checksum",
    "ForestInvariantError",
    "forest_is_valid",
    "validate_forest",
]
