"""Corpus: known-good SPMD idioms that must produce zero findings.

Every pattern here is the paper-correct uniform variant of a bad-corpus
snippet; a finding on any line of this file is a false positive.
"""

import random

import numpy as np

from repro.p4est.ghost import build_ghost
from repro.parallel.layers import Sanitize, Trace, wrap_comm
from repro.parallel.ops import LOR, MAX, SUM


def allreduce_gated_adapt(comm, forest):
    # The paper idiom: reduce the local predicate globally, then every
    # rank takes the same branch — the laundered gate is uniform.
    mask = forest.local.level > 2
    if bool(comm.allreduce(bool(mask.any()), LOR)):
        forest.coarsen(mask=mask)


def ghost_exchange_gated_on_size(space, comm, q):
    # The communicator's size is the same on every rank; a rank's ghost
    # count is not (see the bad corpus).
    if comm.size == 1:
        return q
    return space.ghost.exchange_octant_data(comm, q)


def rank_payload_is_fine(comm):
    # Per-rank *payloads* into collectives are the whole point.
    return comm.allreduce(comm.rank, SUM)


def uniform_trip_count(comm, forest, max_level):
    # A globally reduced bound is the same on every rank.
    depth = int(comm.allreduce(int(forest.local_count > 0), MAX))
    for _ in range(max_level * depth):
        comm.barrier()


def rank_branch_without_collectives(comm, path):
    # Rank-dependent work is fine when no collective depends on it.
    if comm.rank == 0:
        print(path)


def validation_guard(comm, payload):
    # A tainted raise aborts the machine attributably; it is not a
    # silent divergence and must not be flagged.
    if comm.rank >= comm.size:
        raise RuntimeError("impossible rank")
    return comm.allreduce(payload, SUM)


def canonical_stack(comm):
    return wrap_comm(comm, [Sanitize(), Trace()])


def seeded_rng(comm, n):
    rng = np.random.default_rng(1234)
    random.seed(7)
    return comm.allgather(rng.standard_normal(n))


def sorted_set_is_deterministic(comm, items):
    ordered = sorted(set(items))
    return comm.bcast(ordered)


def try_that_reraises(comm, payload):
    # Re-raising keeps the failure loud; only swallowing is flagged.
    try:
        return comm.allreduce(payload, SUM)
    except Exception:
        raise


def rebuild_on_forest_revision(forest, built):
    # Forest.revision moves only on a collective result (the allgathered
    # octant total, the allreduced move count), so it is the same number
    # on every rank: gating the collective rebuild on it is uniform.
    if forest.revision != built:
        build_ghost(forest)
    return forest.revision
