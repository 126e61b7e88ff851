"""forest_weak — paper Fig. 4: the one-shot p4est pipeline on a fractal forest.

``rotcubes()`` six-tree forest, fractal refinement (children 0, 3, 5, 6)
to level 5 (~27.8K octants); the seed refines a further random 1 % of
the leaves.  One op is a full New→Refine→Partition→Balance→Ghost→Nodes
pipeline on ``SerialComm`` (~0.7 s).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.p4est.balance import balance, is_balanced
from repro.p4est.builders import rotcubes
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.p4est.validate import forest_is_valid
from repro.parallel import SerialComm

from ..spans import NULL
from ..stats import median
from . import Ops, Workload

OPS_PER_SECOND = 1.5
PHASES = ("new", "refine", "partition", "balance", "ghost", "nodes")


def fractal_mask(octs, maxlevel: int) -> np.ndarray:
    cid = octs.child_ids()
    keep = (cid == 0) | (cid == 3) | (cid == 5) | (cid == 6)
    return keep & (octs.level < maxlevel)


class W(Workload):
    name = "forest_weak"
    primary = "pipeline"

    def setup(self) -> None:
        self.level = 3 if self.quick else 5
        self.conn = rotcubes()
        self.extra_seed = int(self.rng.integers(1 << 31))
        self.checksums = []
        self.counts: Dict[str, int] = {}
        # One small pipeline so lazy imports and caches are paid before timing.
        self._pipeline(2, NULL)

    def _pipeline(self, level: int, rec) -> None:
        comm = SerialComm()
        with rec.span("new", "p4est"):
            forest = Forest.new(self.conn, comm, level=1)
        with rec.span("refine", "p4est"):
            forest.refine(callback=lambda o: fractal_mask(o, level), recursive=True)
            extra = np.random.default_rng(self.extra_seed).random(forest.local_count) < 0.01
            forest.refine(mask=extra & (forest.local.level < level), maxlevel=level)
        with rec.span("partition", "p4est"):
            forest.partition()
        before = forest.global_count
        with rec.span("balance", "p4est"):
            balance(forest)
        with rec.span("ghost", "p4est"):
            ghost = build_ghost(forest)
        with rec.span("nodes", "p4est"):
            ln = lnodes(forest, ghost, 1)
        self.forest, self.ghost = forest, ghost
        self.counts = {
            "octants": int(forest.global_count),
            "balance_added": int(forest.global_count - before),
            "ghost_octants": len(ghost),
            "nodes_global": int(ln.global_num_nodes),
        }

    def run(self, seconds: float, ops: Ops) -> None:
        n = 2 if self.quick else max(3, round(seconds * OPS_PER_SECOND))
        for _ in range(n):
            with ops.time("pipeline", "p4est"):
                self._pipeline(self.level, ops.rec)
            self.checksums.append(self.forest.checksum())
        ops.failed += sum(c != self.checksums[0] for c in self.checksums)

    def verify(self, ops: Ops) -> int:
        valid = forest_is_valid(self.forest.comm, self.forest, ghost=self.ghost)
        return int(not (valid and is_balanced(self.forest)))

    def inputs(self) -> dict:
        return {"level": self.level, **self.counts, "checksum": self.checksums[0]}

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        out: Dict[str, float] = {}
        moct = self.counts["octants"] / 1e6
        for p in PHASES:
            out[f"p4est.{p}_s"] = median(rec.durations(p))
            if p in ("balance", "ghost", "nodes"):
                out[f"p4est.{p}_s_per_moct"] = out[f"p4est.{p}_s"] / moct
        for k, v in self.counts.items():
            out[f"p4est.{k}"] = v
        return out

