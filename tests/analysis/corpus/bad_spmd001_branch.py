"""Corpus: collectives control-dependent on rank-tainted branches.

Includes the minimized PR-4 divergence: gating ``forest.coarsen`` on a
rank-local mask, which deadlocked real runs until the gate became a
global ``allreduce``.  Lines carrying an ``# expect:`` marker must be
flagged with exactly that rule; every other line must stay clean.
"""

from repro.amr.driver import adapt_and_rebalance
from repro.p4est.ghost import build_ghost


def gate_on_rank(comm):
    if comm.rank == 0:
        comm.barrier()  # expect: SPMD001
    return comm.rank


def pr4_adapt_coarsen(forest):
    # The PR-4 bug, minimized: the coarsen gate is a *local* predicate,
    # so ranks disagree on whether the collective runs at all.
    mask = forest.local.level > 2
    if mask.any():
        forest.coarsen(mask=mask)  # expect: SPMD001


def tainted_via_assignment(comm, payload):
    decider = comm.rank % 2
    chosen = decider + 1
    if chosen > 1:
        return comm.allreduce(payload)  # expect: SPMD001
    return payload


def early_exit_divergence(comm, work):
    if comm.rank == 3:
        return None
    return comm.allgather(work)  # expect: SPMD001


def ternary_gate(comm, x):
    return comm.bcast(x) if comm.rank else x  # expect: SPMD001


def ghost_exchange_skipped_without_ghosts(space, comm, q):
    # The dG ghost exchange as it was until PR 21: a rank with no ghost
    # elements (an empty rank, say) returned before the collective its
    # neighbours entered.  A mesh's element counts are rank-local.
    if space.mesh.nelem_ghost == 0:
        return q
    return space.ghost.exchange_octant_data(comm, q)  # expect: SPMD001


def rebuild_gated_on_adapt_result(forest, refine, coarsen):
    # adapt_and_rebalance's statistics are registered as rank-local, so a
    # predicate on them does not gate a collective rebuild uniformly; the
    # forest's revision does (see the good corpus).
    result, _ = adapt_and_rebalance(forest, refine, coarsen)
    if result.refined or result.coarsened or result.moved:
        build_ghost(forest)  # expect: SPMD001
