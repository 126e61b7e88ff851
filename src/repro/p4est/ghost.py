"""Ghost layer construction and ghost data exchange.

``Ghost`` (paper §II-C/§II-E) collects one layer of non-local octants
touching the parallel partition boundary from the outside, sorted in the
SFC total order.  We also keep the *mirror* bookkeeping — which of my
octants were sent to which ranks — so that per-octant field data can later
be pushed to the neighbors' ghost slots with one sparse exchange
(:meth:`GhostLayer.exchange_octant_data`), the facility the dG and cG
discretizations of mangll are built on.

Construction mirrors Balance's neighborhood machinery: every local leaf is
sent to each rank owning leaves that overlap one of its same-size neighbor
regions (transformed across inter-tree links where needed).  Adjacency is
symmetric, so this sender-side rule delivers exactly one layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.p4est.balance import generate_neighbor_regions, into_trees, split_by_dest
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.parallel.collectives import collective
from repro.p4est.octant import Octants, neighborhood
from repro.trace.tracer import PHASE_GHOST, traced


@dataclass
class GhostLayer:
    """One layer of remote octants around this rank's partition segment.

    Attributes
    ----------
    octants:
        The ghost octants, in global SFC order (coordinates in their own
        tree's system).
    owners:
        Owning rank of each ghost octant.
    mirrors:
        Sorted local indices of my octants that appear in some other
        rank's ghost layer.
    mirror_map:
        For each neighbor rank, the sorted local indices sent to it.
    ghost_map:
        For each neighbor rank, the indices into ``octants`` that came
        from it (ascending, matching that rank's local SFC order).
    """

    octants: Octants
    owners: np.ndarray
    mirrors: np.ndarray
    mirror_map: Dict[int, np.ndarray] = field(default_factory=dict)
    ghost_map: Dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.octants)

    @collective("method", "exchange_octant_data")
    def exchange_octant_data(self, comm, local_data: np.ndarray) -> np.ndarray:
        """Push per-octant data to neighbors; returns per-ghost data.

        ``local_data`` is indexed like the local octant array (first axis);
        the result is indexed like :attr:`octants`.  This is mangll's
        parallel scatter for element fields.
        """
        local_data = np.asarray(local_data)
        outbox = {
            rank: np.ascontiguousarray(local_data[idx])
            for rank, idx in self.mirror_map.items()
        }
        inbox = comm.exchange(outbox)
        shape = (len(self.octants),) + local_data.shape[1:]
        out = np.zeros(shape, dtype=local_data.dtype)
        for rank, payload in inbox.items():
            out[self.ghost_map[rank]] = payload
        return out


@traced(PHASE_GHOST)
@collective("function", "build_ghost")
def build_ghost(
    forest: Forest, codim: Optional[int] = None, layers: int = 1
) -> GhostLayer:
    """Collect the ghost layer (``Ghost``).

    ``codim`` chooses the adjacency that defines "touching": 1 for
    face-ghosts only, up to ``dim`` for full corner ghosts (default).
    ``layers`` widens the halo: the k-th layer contains remote leaves
    adjacent to the (k-1)-th (the paper: "multiple layers, for example as
    needed by a semi-Lagrangian method, can be enabled by a minor
    extension of Ghost").  Requires no particular balance state, though
    the discretizations assume a 2:1-balanced forest.
    """
    dim = forest.dim
    codim = dim if codim is None else codim
    if not 1 <= codim <= dim:
        raise ValueError(f"codim must be in [1, {dim}]")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if layers > 1:
        return _build_ghost_multilayer(forest, codim, layers)
    comm = forest.comm
    leaves = forest.local
    n = len(leaves)

    # For each leaf, which remote ranks own a region adjacent to it?  One
    # batched neighbor generation over every direction, exterior regions
    # routed through the connectivity's link table, then every region's
    # owner rank range flattened into (dest rank, source leaf) pairs that
    # ``split_by_dest`` deduplicates.  A lone rank owns every region: it
    # generates none and its exchange below is empty.
    mirror_map: Dict[int, np.ndarray] = {}
    if n and comm.size > 1:
        src_all, nb = neighborhood(leaves, codim)
        inside = nb.inside_root()
        leaf, regions = into_trees(forest.conn, nb, inside, inside, src_all)
        if len(regions):
            dests, ridx = forest.owner_segments(regions)
            keep = dests != comm.rank
            mirror_map = dict(split_by_dest(dests[keep], leaf[ridx[keep]], n))
    outbox = {p: octants_to_wire(leaves[idx]) for p, idx in mirror_map.items()}
    inbox = comm.exchange(outbox)

    parts: List[Octants] = []
    part_owner: List[np.ndarray] = []
    for src in sorted(inbox):
        got = octants_from_wire(dim, inbox[src])
        parts.append(got)
        part_owner.append(np.full(len(got), src, dtype=np.int64))
    if parts:
        ghosts = Octants.concat(parts)
        owners = np.concatenate(part_owner)
        order = ghosts.sort_order()
        ghosts = ghosts[order]
        owners = owners[order]
    else:
        ghosts = Octants.empty(dim)
        owners = np.empty(0, dtype=np.int64)

    ghost_map = {
        int(src): np.flatnonzero(owners == src) for src in np.unique(owners)
    }
    mirrors = (
        np.unique(np.concatenate([idx for idx in mirror_map.values()]))
        if mirror_map
        else np.empty(0, dtype=np.int64)
    )
    return GhostLayer(ghosts, owners, mirrors, mirror_map, ghost_map)


def _build_ghost_multilayer(forest: Forest, codim: int, layers: int) -> GhostLayer:
    """Widen a one-layer ghost halo by request/reply rounds.

    Each extra layer: compute the neighbor regions of the current halo
    locally (transforms are global knowledge), route them to their owner
    ranks, and have the owners reply with their leaves overlapping each
    region.  Mirror/ghost maps are extended so data exchange covers the
    whole halo.
    """
    from repro.p4est.octant import is_ancestor_pairwise, searchsorted_octants

    comm = forest.comm
    dim = forest.dim
    ghost = build_ghost(forest, codim=codim, layers=1)
    mirror_sets: Dict[int, set] = {
        p: set(idx.tolist()) for p, idx in ghost.mirror_map.items()
    }
    g_octs = ghost.octants
    g_owner = ghost.owners

    def known_keys(octs: Octants) -> set:
        return set(zip(octs.tree.tolist(), octs.keys().tolist()))

    known = known_keys(forest.local) | known_keys(g_octs)

    frontier = g_octs
    for _ in range(layers - 1):
        all_done = comm.allreduce(int(len(frontier) == 0)) == comm.size
        if all_done:
            break
        regions = generate_neighbor_regions(forest.conn, frontier, codim)
        if len(regions):
            regions = regions.sorted().dedup()
        # Route regions to owners (excluding self: my own leaves are not
        # ghosts).
        wire_out: Dict[int, np.ndarray] = {}
        if len(regions):
            dests, ridx = forest.owner_segments(regions)
            keep = dests != comm.rank
            for p, idxs in split_by_dest(dests[keep], ridx[keep], len(regions)):
                wire_out[p] = octants_to_wire(regions[idxs])
        inbox = comm.exchange(wire_out)

        # Owners reply with local leaves overlapping the queried regions.
        reply: Dict[int, np.ndarray] = {}
        for src, wire in inbox.items():
            regs = octants_from_wire(dim, wire)
            mine = forest.local
            hit = np.zeros(len(mine), dtype=bool)
            if len(mine) and len(regs):
                lo_i = searchsorted_octants(mine, regs, side="right")
                hi_i = searchsorted_octants(
                    mine, regs.last_descendants(), side="right"
                )
                # Mark all [lo_i, hi_i) ranges at once with a difference
                # array instead of a per-region slice loop.
                acc = np.zeros(len(mine) + 1, dtype=np.int64)
                np.add.at(acc, lo_i, 1)
                np.add.at(acc, hi_i, -1)
                hit = np.cumsum(acc[:-1]) > 0
                pos = np.maximum(lo_i - 1, 0)
                anc = mine[pos]
                contain = (lo_i > 0) & is_ancestor_pairwise(anc, regs)
                hit[pos[contain]] = True
            idx = np.flatnonzero(hit)
            mirror_sets.setdefault(int(src), set()).update(idx.tolist())
            reply[int(src)] = octants_to_wire(mine[idx])
        answers = comm.exchange(reply)

        new_parts: List[Octants] = []
        new_owner_parts: List[np.ndarray] = []
        for src in sorted(answers):
            got = octants_from_wire(dim, answers[src])
            fresh = np.array(
                [
                    (t, k) not in known
                    for t, k in zip(got.tree.tolist(), got.keys().tolist())
                ],
                dtype=bool,
            )
            if fresh.any():
                kept = got[fresh]
                new_parts.append(kept)
                new_owner_parts.append(np.full(len(kept), src, dtype=np.int64))
                known |= known_keys(kept)
        if new_parts:
            frontier = Octants.concat(new_parts).sorted()
            add_owners = np.concatenate(new_owner_parts)
            merged = Octants.concat([g_octs, Octants.concat(new_parts)])
            g_owner = np.concatenate([g_owner, add_owners])
            order = merged.sort_order()
            g_octs = merged[order]
            g_owner = g_owner[order]
        else:
            frontier = Octants.empty(dim)

    mirror_map = {
        p: np.array(sorted(s), dtype=np.int64) for p, s in mirror_sets.items() if s
    }
    ghost_map = {
        int(src): np.flatnonzero(g_owner == src) for src in np.unique(g_owner)
    }
    mirrors = (
        np.unique(np.concatenate(list(mirror_map.values())))
        if mirror_map
        else np.empty(0, dtype=np.int64)
    )
    return GhostLayer(g_octs, g_owner, mirrors, mirror_map, ghost_map)
