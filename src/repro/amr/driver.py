"""The adapt cycle: mark -> coarsen/refine -> balance -> transfer -> partition.

One call to :func:`adapt_and_rebalance` performs the complete dynamic
adaptation step of the paper's applications, carrying any number of
per-element nodal fields to the new mesh and partition.  Refinement wins
over coarsening where both are marked; coarsening happens only for
complete local families with every sibling marked (the ``Coarsen``
semantics), and 2:1 balance may veto coarsening simply by re-refining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mangll.transfer import transfer_nodal_fields
from repro.p4est import checkpoint as forest_checkpoint
from repro.p4est.balance import balance
from repro.p4est.forest import Forest
from repro.parallel.collectives import collective
from repro.parallel.run import CheckpointStore, MemoryCheckpointStore


@dataclass
class AdaptResult:
    """Statistics of one adapt cycle (globally reduced)."""

    refined: int
    coarsened: int
    balance_rounds: int
    moved: int
    elements_before: int
    elements_after: int


@dataclass
class CheckpointPolicy:
    """Periodic forest checkpointing driven by adapt cycles.

    Owns its cycle counter so any driver loop can call
    :meth:`after_adapt` once per cycle; every ``every``-th call snapshots
    the forest (plus per-element fields and app ``meta``) into ``store``
    via partition-independent :func:`repro.p4est.checkpoint.save`.  The
    store outlives the rank threads (or worker processes), which is
    what makes recovering runs (``RunConfig(recover=True)``) possible.
    """

    store: CheckpointStore = field(default_factory=MemoryCheckpointStore)
    every: int = 1
    root: int = 0
    cycles: int = 0

    def due(self) -> bool:
        """Whether the next :meth:`after_adapt` call will checkpoint."""
        return self.every > 0 and (self.cycles + 1) % self.every == 0

    @collective("method", "after_adapt")
    def after_adapt(
        self,
        forest: Forest,
        fields: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Count one adapt cycle; checkpoint if due.  Collective."""
        self.cycles += 1
        if self.every <= 0 or self.cycles % self.every:
            return False
        ckpt = forest_checkpoint.save(forest, fields=fields, meta=meta, root=self.root)
        self.store.save(ckpt)
        return True


@collective("function", "adapt_and_rebalance")
def adapt_and_rebalance(
    forest: Forest,
    refine_mask: np.ndarray,
    coarsen_mask: Optional[np.ndarray] = None,
    fields: Sequence[np.ndarray] = (),
    degree: int = 1,
    weights_fn=None,
    min_level: int = 0,
    max_level: Optional[int] = None,
    codim: Optional[int] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    checkpoint_meta: Optional[Dict[str, Any]] = None,
    validate: bool = False,
) -> Tuple[AdaptResult, List[np.ndarray]]:
    """Run one full adapt cycle and return carried fields on the new mesh.

    ``refine_mask`` / ``coarsen_mask`` flag local elements; ``fields`` are
    per-element nodal arrays of the given dG ``degree``.  ``weights_fn``,
    if given, maps the forest to per-element partition weights.  With a
    ``checkpoint`` policy, the adapted forest and carried fields are
    snapshotted into the policy's store when the cycle is due
    (``checkpoint_meta`` rides along for the restart).  With
    ``validate=True``, the distributed forest invariants are checked
    after the cycle via :func:`repro.p4est.validate.validate_forest`,
    raising :class:`~repro.p4est.validate.ForestInvariantError` on any
    corruption (the app drivers expose this as ``validate_every=k``).
    Collective.
    """
    from repro.parallel.ops import SUM

    comm = forest.comm
    n_before = forest.global_count
    old = forest.local.copy()

    refine_mask = np.asarray(refine_mask, dtype=bool)
    if refine_mask.shape != (len(old),):
        raise ValueError("refine_mask has wrong length")
    if coarsen_mask is not None:
        coarsen_mask = np.asarray(coarsen_mask, dtype=bool) & ~refine_mask
        if coarsen_mask.shape != (len(old),):
            raise ValueError("coarsen_mask has wrong length")

    if min_level > 0:
        refine_mask = refine_mask | (forest.local.level < min_level)
    nref = forest.refine(mask=refine_mask, maxlevel=max_level)

    ncoarse = 0
    # Collective-uniform branch: coarsen() refreshes the global counts
    # (an allgather), so every rank must enter whenever any rank could —
    # gating on the local mask being non-empty deadlocks/diverges ranks
    # whose segment happens to hold no coarsen candidates.
    if coarsen_mask is not None:
        # Map the coarsen flags onto the post-refinement array: refined
        # elements are never coarsen candidates, surviving elements keep
        # their flag (found by key lookup).
        from repro.p4est.octant import searchsorted_octants

        pos = searchsorted_octants(forest.local, old, side="left")
        flags = np.zeros(forest.local_count, dtype=bool)
        survived = pos < forest.local_count
        same = np.zeros(len(old), dtype=bool)
        cand = np.minimum(pos, forest.local_count - 1)
        cur = forest.local[cand]
        same = (
            (cur.tree == old.tree)
            & (cur.x == old.x)
            & (cur.y == old.y)
            & (cur.z == old.z)
            & (cur.level == old.level)
        )
        sel = same & coarsen_mask
        flags[cand[sel]] = True
        flags &= forest.local.level > min_level
        ncoarse = forest.coarsen(mask=flags)

    rounds = balance(forest, codim=codim)

    new_fields = [transfer_nodal_fields(old, f, forest.local, degree) for f in fields]

    weights = weights_fn(forest) if weights_fn is not None else None
    # Branch on the caller-supplied field list (uniform across ranks),
    # not on the derived per-rank arrays.
    if fields:
        moved, new_fields = forest.partition(weights=weights, carry=new_fields)
    else:
        moved = forest.partition(weights=weights)

    result = AdaptResult(
        refined=int(comm.allreduce(nref, SUM)),
        coarsened=int(comm.allreduce(ncoarse, SUM)),
        balance_rounds=rounds,
        moved=moved,
        elements_before=n_before,
        elements_after=forest.global_count,
    )
    if checkpoint is not None:
        checkpoint.after_adapt(
            forest,
            fields={f"field{i}": arr for i, arr in enumerate(new_fields)},
            meta=checkpoint_meta,
        )
    if validate:
        from repro.p4est.validate import validate_forest

        validate_forest(comm, forest, codim=codim)
    return result, list(new_fields)


@collective("function", "mark_fixed_fraction")
def mark_fixed_fraction(
    indicator: np.ndarray,
    comm,
    refine_fraction: float = 0.1,
    coarsen_fraction: float = 0.1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Global fixed-fraction marking from a per-element indicator.

    Elements above the (1 - refine_fraction) global quantile are marked
    for refinement; those below the coarsen_fraction quantile for
    coarsening.  Quantiles are estimated from a gathered histogram so all
    ranks agree without gathering the raw values.
    """
    from repro.parallel.ops import MAX, MIN, SUM

    lo = comm.allreduce(float(indicator.min()) if len(indicator) else np.inf, MIN)
    hi = comm.allreduce(float(indicator.max()) if len(indicator) else -np.inf, MAX)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        z = np.zeros(len(indicator), dtype=bool)
        return z, z
    nbins = 256
    edges = np.linspace(lo, hi, nbins + 1)
    hist, _ = np.histogram(indicator, bins=edges)
    hist = np.asarray(comm.allreduce(hist, SUM))
    total = hist.sum()
    cdf = np.cumsum(hist)
    hi_cut = edges[np.searchsorted(cdf, (1 - refine_fraction) * total)]
    lo_cut = edges[min(np.searchsorted(cdf, coarsen_fraction * total) + 1, nbins)]
    return indicator >= hi_cut, indicator <= lo_cut
