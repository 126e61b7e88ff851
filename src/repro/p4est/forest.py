"""The distributed forest of octrees.

Each rank stores only its own contiguous segment of the space-filling
curve (strictly distributed octant storage, paper §II-B).  The globally
shared metadata is exactly what the paper describes — the number of
octants on each core plus the tree id and coordinates of each core's
first octant ("32 bytes per core") — kept here as the marker arrays of
:class:`PartitionMarkers` and refreshed by one allgather.

Implemented here: construction (``New``), the communication-free
``Refine`` and ``Coarsen``, weighted ``Partition``, and SFC owner search.
``Balance``, ``Ghost`` and ``Nodes`` live in their own modules and operate
on a :class:`Forest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.p4est.bits import (
    dimension,
    interleave,
    key_descendant_span,
    seg_searchsorted,
)
from repro.p4est.connectivity import Connectivity
from repro.p4est.octant import (
    Octant,
    Octants,
    is_ancestor_pairwise,
    validate_leaf_set,
)
from repro.parallel.comm import Comm
from repro.parallel.collectives import collective
from repro.parallel.ops import LOR, SUM
from repro.trace.tracer import PHASE_ADAPT, PHASE_PARTITION, traced

RefineCallback = Callable[[Octants], np.ndarray]


def octants_to_wire(octs: Octants) -> np.ndarray:
    """Pack octants into a dense (n, 5) int64 array for communication."""
    wire = np.empty((len(octs), 5), dtype=np.int64)
    wire[:, 0] = octs.tree
    wire[:, 1] = octs.x
    wire[:, 2] = octs.y
    wire[:, 3] = octs.z
    wire[:, 4] = octs.level
    return wire


def octants_from_wire(dim: int, wire: np.ndarray) -> Octants:
    """Unpack the :func:`octants_to_wire` format."""
    wire = np.asarray(wire, dtype=np.int64).reshape(-1, 5)
    return Octants(dim, wire[:, 0], wire[:, 1], wire[:, 2], wire[:, 3], wire[:, 4])


@dataclass
class PartitionMarkers:
    """The global partition boundary metadata (one entry per rank + sentinel).

    ``tree[p]``/``morton[p]`` locate the first octant of rank ``p`` on the
    space-filling curve; empty ranks repeat their successor's marker; the
    sentinel entry is past the last tree.  ``counts[p]`` is the octant
    count of rank ``p``.
    """

    tree: np.ndarray  # (P+1,) int64
    morton: np.ndarray  # (P+1,) uint64
    counts: np.ndarray  # (P,) int64

    @property
    def global_count(self) -> int:
        return int(self.counts.sum())

    def offsets(self) -> np.ndarray:
        """Global index of each rank's first octant, with trailing total."""
        out = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=out[1:])
        return out

    def owner_of_points(self, tree: np.ndarray, morton: np.ndarray) -> np.ndarray:
        """Rank owning the leaf containing each (tree, maxlevel-morton) point."""
        pos = (
            seg_searchsorted(self.tree, self.morton, tree, morton, side="right") - 1
        )
        return np.clip(pos, 0, len(self.counts) - 1).astype(np.int64)


class Forest:
    """A distributed forest of octrees over a :class:`Connectivity`.

    Construct with :meth:`Forest.new`; all ranks of ``comm`` must
    construct and mutate the forest collectively.

    ``revision`` counts the changes of the partitioned leaf set, like
    p4est's ``revision``: refine, coarsen and ``balance`` raise it when
    the global octant count changes, ``partition`` when an octant moves.
    The count and the move total are collective results, so it is equal
    on every rank, and state built for one revision (ghost layer, mesh,
    spaces) is still valid while the revision stays the same.
    """

    def __init__(self, conn: Connectivity, comm: Comm, local: Octants) -> None:
        self.conn = conn
        self.comm = comm
        self.dim = conn.dim
        self.D = dimension(conn.dim)
        self.local = local
        self.markers: PartitionMarkers = self._gather_markers()
        self.revision = 0
        self._revision_count = self.markers.global_count

    # Construction --------------------------------------------------------------

    @classmethod
    @collective("forest", "new")
    def new(cls, conn: Connectivity, comm: Comm, level: int = 0) -> "Forest":
        """Create an equi-partitioned, uniformly refined forest (``New``).

        Levels as low as zero are allowed, leaving many ranks empty when
        there are fewer root octants than ranks (paper §II-C).
        """
        D = dimension(conn.dim)
        if not 0 <= level <= D.maxlevel:
            raise ValueError(f"level must be in [0, {D.maxlevel}]")
        per_tree = 1 << (conn.dim * level)
        total = conn.num_trees * per_tree
        p, size = comm.rank, comm.size
        start = (total * p) // size
        stop = (total * (p + 1)) // size
        local = Octants.uniform_slice(conn.dim, conn.num_trees, level, start, stop)
        return cls(conn, comm, local)

    # Shared metadata -------------------------------------------------------------

    def _gather_markers(self) -> PartitionMarkers:
        n = len(self.local)
        if n:
            first = self.local.octant(0)
            mine = (n, first.tree, int(interleave(self.dim, first.x, first.y, first.z)))
        else:
            mine = (0, -1, 0)
        rows = self.comm.allgather(mine)
        P = self.comm.size
        tree = np.empty(P + 1, dtype=np.int64)
        morton = np.zeros(P + 1, dtype=np.uint64)
        counts = np.empty(P, dtype=np.int64)
        tree[P] = self.conn.num_trees  # sentinel past the last tree
        for p in range(P - 1, -1, -1):
            cnt, t, m = rows[p]
            counts[p] = cnt
            if cnt == 0:
                tree[p] = tree[p + 1]
                morton[p] = morton[p + 1]
            else:
                tree[p] = t
                morton[p] = m
        return PartitionMarkers(tree, morton, counts)

    def _refresh_markers(self) -> None:
        self.markers = self._gather_markers()

    @property
    def global_count(self) -> int:
        return self.markers.global_count

    @property
    def local_count(self) -> int:
        return len(self.local)

    # Owner search ------------------------------------------------------------------

    def owner_of(self, octs: Octants) -> np.ndarray:
        """Rank owning the leaf at each octant's first-descendant position."""
        return self.markers.owner_of_points(
            octs.tree.astype(np.int64), octs.mortons()
        )

    def owner_range(self, octs: Octants) -> Tuple[np.ndarray, np.ndarray]:
        """Inclusive rank range owning any leaf overlapping each octant.

        Computed on the flat key array: the SFC interval of an octant is
        its deepest-descendant Morton span, so no descendant octant
        arrays are materialized.
        """
        first, last = key_descendant_span(self.dim, octs.keys())
        tree = octs.tree.astype(np.int64)
        lo = self.markers.owner_of_points(tree, first)
        hi = self.markers.owner_of_points(tree, last)
        return lo, hi

    def owner_segments(self, octs: Octants) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten inclusive owner ranges into ``(dests, src_idx)`` pairs.

        For each octant ``i`` with owner range ``lo[i]..hi[i]`` the result
        contains the pairs ``(p, i)`` for every rank ``p`` in the range,
        dest-major within each octant.  This vectorizes the former
        per-rank ``setdefault`` accumulation loops of Ghost and Balance.
        """
        lo, hi = self.owner_range(octs)
        counts = hi - lo + 1
        total = int(counts.sum())
        src_idx = np.repeat(np.arange(len(octs), dtype=np.int64), counts)
        # Offset within each octant's range: global position minus the
        # start position of the octant's run.
        run_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        offset = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        dests = np.repeat(lo, counts) + offset
        return dests, src_idx

    # Refinement / coarsening ----------------------------------------------------------

    @collective("forest", "refine")
    @traced(PHASE_ADAPT)
    def refine(
        self,
        mask: Optional[np.ndarray] = None,
        callback: Optional[RefineCallback] = None,
        recursive: bool = False,
        maxlevel: Optional[int] = None,
    ) -> int:
        """Subdivide flagged octants (``Refine``; no communication).

        Provide either a boolean ``mask`` over the current local octants or
        a ``callback`` mapping an :class:`Octants` batch to a boolean mask.
        With ``recursive=True`` (callback required) new children are
        re-tested until the callback declines everywhere.  Returns the
        number of refinement operations performed locally.
        """
        if (mask is None) == (callback is None):
            raise ValueError("provide exactly one of mask or callback")
        if recursive and callback is None:
            raise ValueError("recursive refinement requires a callback")
        cap = self.D.maxlevel if maxlevel is None else min(maxlevel, self.D.maxlevel)

        nsplit = 0
        current = self.local
        flags = mask if mask is not None else callback(current)
        while True:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != (len(current),):
                raise ValueError("refinement mask has wrong length")
            flags = flags & (current.level < cap)
            if not flags.any():
                break
            keep = current[~flags]
            split = current[flags].children()
            nsplit += int(flags.sum())
            current = Octants.concat([keep, split]) if len(keep) else split
            current = current.sorted()
            if not recursive:
                break
            flags = callback(current)
        self.local = current
        self.markers.counts[self.comm.rank] = len(current)
        self._refresh_counts()
        return nsplit

    @collective("forest", "coarsen")
    @traced(PHASE_ADAPT)
    def coarsen(
        self,
        mask: Optional[np.ndarray] = None,
        callback: Optional[RefineCallback] = None,
        recursive: bool = False,
    ) -> int:
        """Replace complete local families of flagged children by their
        parent (``Coarsen``; no communication).

        A family is coarsened only when all ``2**dim`` siblings are local,
        adjacent in the array, and every one is flagged.  Returns the
        number of families coarsened locally.
        """
        if (mask is None) == (callback is None):
            raise ValueError("provide exactly one of mask or callback")
        if recursive and callback is None:
            raise ValueError("recursive coarsening requires a callback")
        total = 0
        while True:
            current = self.local
            flags = np.asarray(mask if mask is not None else callback(current), dtype=bool)
            if flags.shape != (len(current),):
                raise ValueError("coarsening mask has wrong length")
            fam = self._family_starts(current)
            if len(fam):
                nc = self.D.num_children
                fam_ok = np.array(
                    [flags[s : s + nc].all() for s in fam], dtype=bool
                )
                fam = fam[fam_ok]
            if len(fam) == 0:
                break
            nc = self.D.num_children
            drop = np.zeros(len(current), dtype=bool)
            for s in fam:
                drop[s : s + nc] = True
            parents = current[fam].parents()
            kept = current[~drop]
            merged = Octants.concat([kept, parents]) if len(kept) else parents
            self.local = merged.sorted()
            total += len(fam)
            if not (recursive and callback is not None):
                break
            mask = None  # re-evaluate via callback on the coarsened set
        self.markers.counts[self.comm.rank] = len(self.local)
        self._refresh_counts()
        return total

    def _family_starts(self, octs: Octants) -> np.ndarray:
        """Indices where a complete family of siblings starts (sorted set).

        In SFC order a complete family appears as 2^d consecutive octants
        of equal level whose first member is child 0 and which share a
        parent.
        """
        n = len(octs)
        nc = self.D.num_children
        if n < nc:
            return np.empty(0, dtype=np.int64)
        cid = octs.child_ids()
        starts = np.flatnonzero((cid == 0) & (octs.level > 0))
        starts = starts[starts + nc <= n]
        if len(starts) == 0:
            return starts
        ok = np.ones(len(starts), dtype=bool)
        lev = octs.level
        tree = octs.tree
        h = octs.lens()
        for j in range(1, nc):
            idx = starts + j
            ok &= lev[idx] == lev[starts]
            ok &= cid[idx] == j
            ok &= tree[idx] == tree[starts]
        # Same parent: the child-0 corner must be the parent corner of all.
        if ok.any():
            cand = starts[ok]
            first = octs[cand]
            ph = first.lens() * 2
            pmask = ~(ph - 1)
            for j in range(1, nc):
                sib = octs[cand + j]
                same = (
                    ((sib.x & pmask) == (first.x & pmask))
                    & ((sib.y & pmask) == (first.y & pmask))
                    & ((sib.z & pmask) == (first.z & pmask))
                )
                sel = np.ones(len(starts), dtype=bool)
                sel[ok] = same
                ok &= sel
                cand = starts[ok]
                first = octs[cand]
                ph = first.lens() * 2
                pmask = ~(ph - 1)
        return starts[ok]

    def _refresh_counts(self) -> None:
        counts = self.comm.allgather(len(self.local))
        self.markers.counts = np.asarray(counts, dtype=np.int64)
        # Refine and balance only raise the leaf count, coarsen only lowers
        # it: the leaf set changed exactly when the allgathered total did.
        total = self.markers.global_count
        if total != self._revision_count:
            self._revision_count = total
            self.revision += 1

    # Partition -----------------------------------------------------------------------

    @collective("forest", "partition")
    @traced(PHASE_PARTITION)
    def partition(
        self,
        weights: Optional[np.ndarray] = None,
        carry: Optional[List[np.ndarray]] = None,
        keep_families: bool = False,
    ):
        """Redistribute octants along the SFC (``Partition``).

        With ``weights`` (one nonnegative number per local octant) the cut
        points equalize cumulative weight instead of octant count; this is
        the "optionally weighted" variant the paper uses when element work
        varies.

        ``carry`` optionally lists per-octant data arrays (first axis =
        local octant index) to redistribute alongside the octants — how
        solution fields follow the mesh partition (§IV-A: "all solution
        fields are ... redistributed according to the mesh partition").

        ``keep_families=True`` snaps the cut points so complete sibling
        families are never split across ranks (p4est's partition-for-
        coarsening), guaranteeing ``Coarsen`` is not blocked by the
        partition.

        Returns the number of octants that changed owner globally, or
        ``(moved, carried)`` when ``carry`` is given.
        """
        P = self.comm.size
        n = len(self.local)
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("weights must have one entry per local octant")
            if (w < 0).any():
                raise ValueError("weights must be nonnegative")
        if carry is not None:
            for arr in carry:
                if len(arr) != n:
                    raise ValueError("carried arrays must have one row per octant")

        local_sum = float(w.sum())
        my_prefix = self.comm.exscan(local_sum, SUM)
        total = self.comm.allreduce(local_sum, SUM)
        if total <= 0:
            # Degenerate weights: fall back to equal counts.
            if weights is not None:
                return self.partition(None, carry)
            return 0 if carry is None else (0, list(carry))

        # Cumulative weight at the *end* of each local octant decides its
        # destination: octant g goes to rank floor(P * cum_g / total) where
        # cum_g is the midpoint of its weight interval (robust to zeros).
        ends = my_prefix + np.cumsum(w)
        mids = ends - 0.5 * w
        dest = np.minimum((P * mids / total).astype(np.int64), P - 1)
        dest = np.maximum.accumulate(dest)  # monotone along the curve
        if keep_families:
            dest = self._snap_family_dests(dest)

        outbox: Dict[int, Any] = {}
        moved = 0
        if n:
            cut = np.flatnonzero(dest[1:] != dest[:-1]) + 1
            seg_starts = np.concatenate([[0], cut])
            seg_ends = np.concatenate([cut, [n]])
            for s, e in zip(seg_starts, seg_ends):
                d = int(dest[s])
                sl = np.arange(s, e)
                payload = octants_to_wire(self.local[sl])
                if carry is not None:
                    outbox[d] = (payload, [np.ascontiguousarray(a[s:e]) for a in carry])
                else:
                    outbox[d] = payload
                if d != self.comm.rank:
                    moved += e - s
        inbox = self.comm.exchange(outbox)
        parts = []
        carried_parts: List[List[np.ndarray]] = []
        for src in sorted(inbox):
            if carry is not None:
                wire, arrs = inbox[src]
                carried_parts.append(arrs)
            else:
                wire = inbox[src]
            parts.append(octants_from_wire(self.dim, wire))
        if parts:
            self.local = Octants.concat(parts)
        else:
            self.local = Octants.empty(self.dim)
        self._refresh_markers()
        moved_total = int(self.comm.allreduce(moved, SUM))
        if moved_total:
            self.revision += 1
        if carry is None:
            return moved_total
        carried: List[np.ndarray] = []
        for i, orig in enumerate(carry):
            pieces = [cp[i] for cp in carried_parts]
            if pieces:
                carried.append(np.concatenate(pieces, axis=0))
            else:
                carried.append(orig[:0].copy())
        return moved_total, carried

    def _snap_family_dests(self, dest: np.ndarray) -> np.ndarray:
        """Give every member of a complete sibling family the destination
        of its child-0 member, so no family is split by the new partition.

        Families spanning *current* rank boundaries are resolved by a
        small allgather of each rank's head/tail octants with their
        nominal destinations (at most 2^d - 1 octants each way).
        Limitation: families spanning three or more current ranks (ranks
        holding fewer than 2^d octants) may remain split.
        """
        nc = self.D.num_children
        n = len(self.local)
        if self.global_count == 0:
            return dest
        k = nc - 1
        head_w = octants_to_wire(self.local[np.arange(min(k, n))])
        tail_idx = np.arange(max(n - k, 0), n)
        tail_w = octants_to_wire(self.local[tail_idx])
        head_d = dest[: min(k, n)].copy()
        tail_d = dest[tail_idx].copy()
        rows = self.comm.allgather((head_w, head_d, tail_w, tail_d))

        me = self.comm.rank
        prev_w = rows[me - 1][2] if me > 0 else np.empty((0, 5), dtype=np.int64)
        prev_d = rows[me - 1][3] if me > 0 else np.empty(0, dtype=np.int64)
        next_w = (
            rows[me + 1][0] if me + 1 < self.comm.size else np.empty((0, 5), np.int64)
        )
        next_d = rows[me + 1][1] if me + 1 < self.comm.size else np.empty(0, np.int64)

        if len(prev_w) + n + len(next_w) == 0:
            return dest
        ext = Octants.concat(
            [
                octants_from_wire(self.dim, prev_w),
                self.local,
                octants_from_wire(self.dim, next_w),
            ]
        )
        ext_dest = np.concatenate([prev_d, dest, next_d]).astype(np.int64)
        starts = self._family_starts(ext)
        for s in starts:
            ext_dest[s : s + nc] = ext_dest[s]
        lo = len(prev_d)
        out = ext_dest[lo : lo + n]
        return np.maximum.accumulate(out) if n else out

    # Validation -----------------------------------------------------------------------

    @collective("forest", "validate")
    def validate(self) -> None:
        """Collectively verify global forest invariants.

        Local sets must be valid leaf sets; rank boundaries must not
        overlap; the union must cover every tree exactly (volume check).
        """
        validate_leaf_set(self.local)
        n = len(self.local)
        edge = (
            self.local.octant(0).as_tuple() if n else None,
            self.local.octant(n - 1).as_tuple() if n else None,
        )
        edges = self.comm.allgather(edge)
        prev_last: Optional[Tuple[int, int, int, int, int]] = None
        for first, last in edges:
            if first is None:
                continue
            if prev_last is not None:
                a = Octants.from_octants(self.dim, [Octant(*prev_last)])
                b = Octants.from_octants(self.dim, [Octant(*first)])
                pair = Octants.concat([a, b])
                if not pair.is_sorted():
                    raise AssertionError("rank segments out of SFC order")
                if is_ancestor_pairwise(a, b)[0] or is_ancestor_pairwise(b, a)[0]:
                    raise AssertionError("rank boundary octants overlap")
            prev_last = last
        vol = self.local.total_volume()
        total = self.comm.allreduce(vol, SUM)
        expect = self.conn.num_trees * (1 << (self.dim * self.D.maxlevel))
        if total != expect:
            raise AssertionError(
                f"forest volume {total} != expected {expect} (holes or overlaps)"
            )
        counts = self.comm.allgather(len(self.local))
        if list(self.markers.counts) != counts:
            raise AssertionError("stale partition counts")

    # Convenience ---------------------------------------------------------------------

    @collective("forest", "levels_histogram")
    def levels_histogram(self) -> np.ndarray:
        """Global octant count per level (allreduced)."""
        hist = np.zeros(self.D.maxlevel + 1, dtype=np.int64)
        if len(self.local):
            np.add.at(hist, self.local.level.astype(np.int64), 1)
        return np.asarray(self.comm.allreduce(hist, SUM))

    @collective("forest", "checksum")
    def checksum(self) -> int:
        """Partition-independent checksum of the global leaf set.

        Like ``p4est_checksum``: two forests holding the same leaves in
        any distribution produce the same value — the standard regression
        handle for adaptive runs.  Collective.
        """
        # Sum of per-octant mixes is invariant under any distribution of
        # the same leaves (addition commutes); a 64-bit avalanche mix of
        # each octant's wire row keeps collisions negligible for
        # regression purposes.
        wire = octants_to_wire(self.local).astype(np.uint64)
        h = np.uint64(0x9E3779B97F4A7C15) * (wire[:, 0] + np.uint64(1))
        for c in range(1, 5):
            h ^= (wire[:, c] + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(
                0xBF58476D1CE4E5B9
            )
            h ^= h >> np.uint64(31)
            h *= np.uint64(0x94D049BB133111EB)
        local = int(h.sum(dtype=np.uint64)) if len(wire) else 0
        total = self.comm.allreduce(local, SUM)
        return int(total % (1 << 64))
