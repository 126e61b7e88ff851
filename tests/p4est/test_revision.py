"""``Forest.revision``: raised exactly when the partitioned leaf set changes.

The app drivers rebuild the ghost layer, mesh and spaces only when the
revision moved, so it must be equal on every rank (an empty one
included) and must not move on an operation that changed nothing.
"""

import numpy as np
import pytest

from repro.p4est.balance import balance
from repro.p4est.builders import unit_square
from repro.p4est.forest import Forest
from tests.parallel.helpers import run as spmd


def _at(forest, x, y, level):
    """Mask of the local octant with lower corner (x, y) at ``level``,
    in units of the level-1 octant's half length (L/4)."""
    q = forest.D.root_len // 4
    octs = forest.local
    return (octs.x == x * q) & (octs.y == y * q) & (octs.level == level)


def _sequence(comm):
    """Every step's (name, revision, global count) on one rank."""
    f = Forest.new(unit_square(), comm, level=0)  # one octant: P > 1 has empty ranks
    out = [("new", f.revision, f.global_count)]

    def step(name):
        out.append((name, f.revision, f.global_count))

    f.refine(mask=np.ones(f.local_count, dtype=bool))  # only the owner refines
    step("refine")
    f.refine(mask=np.zeros(f.local_count, dtype=bool))
    step("refine none")
    f.coarsen(mask=np.zeros(f.local_count, dtype=bool))
    step("coarsen none")
    f.coarsen(mask=np.ones(f.local_count, dtype=bool))
    step("coarsen")
    f.refine(mask=np.ones(f.local_count, dtype=bool))
    f.refine(mask=_at(f, 0, 0, 1))
    # A level-3 family beside the level-1 octant at x = L/2: not 2:1.
    f.refine(mask=_at(f, 1, 0, 2))
    step("refine twice more")
    balance(f)
    step("balance")
    balance(f)
    step("balance balanced")
    f.partition()
    step("partition")
    f.partition()
    step("partition again")
    f.validate()
    return out


@pytest.mark.parametrize("size", [1, 3])
def test_revision_is_uniform_and_counts_changes(size):
    per_rank = spmd(size, _sequence)
    assert all(seq == per_rank[0] for seq in per_rank)
    revs = {name: rev for name, rev, _ in per_rank[0]}
    counts = {name: n for name, _, n in per_rank[0]}
    assert counts["refine"] == 4 and counts["coarsen"] == 1
    assert counts["balance"] > counts["refine twice more"]
    moved = 1 if size > 1 else 0  # at P = 1 nothing has anywhere to go
    assert revs == {
        "new": 0,
        "refine": 1,
        "refine none": 1,
        "coarsen none": 1,
        "coarsen": 2,
        "refine twice more": 5,
        "balance": 6,
        "balance balanced": 6,
        "partition": 6 + moved,
        "partition again": 6 + moved,
    }


def test_partition_with_carry_raises_revision_only_on_a_move():
    def prog(comm):
        f = Forest.new(unit_square(), comm, level=2)
        f.partition()  # New's cuts and Partition's differ by an octant here
        before = f.revision
        moved, _ = f.partition(carry=[np.zeros(f.local_count)])
        unchanged = f.revision == before and moved == 0
        w = np.arange(1, f.local_count + 1, dtype=np.float64) ** 2
        moved, _ = f.partition(weights=w, carry=[np.zeros(f.local_count)])
        return unchanged, moved, f.revision - before

    for unchanged, moved, delta in spmd(3, prog):
        assert unchanged
        assert moved > 0 and delta == 1
