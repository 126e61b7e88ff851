"""stokes_picard — paper Fig. 7: lagged-viscosity Picard iterations with AMR.

``RheaRun`` on the shell at levels 1–2 (808 elements, 3424 dofs); the
seed adds one small Gaussian plume to the temperature.  One op is one
``picard_step()`` (~1.5 s: Stokes assembly, AMG setup, MINRES with a
V-cycle per iteration); every second step is followed by an adapt op.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.rhea.driver import RheaConfig, RheaRun
from repro.parallel import SerialComm
from repro.solvers.amg import smoothed_aggregation

from ..stats import median
from . import Ops, Workload, probe, unit_vector

SECONDS_PER_CYCLE = 3.3  # 2 Picard steps + 1 adapt on the reference box
# Small, so the seed moves the inputs but not the MINRES iteration counts.
PLUME_AMPLITUDE = 0.002
PLUME_WIDTH = 0.15


class W(Workload):
    name = "stokes_picard"
    primary = "picard"

    def setup(self) -> None:
        cfg = RheaConfig(base_level=1, max_level=1 if self.quick else 2)
        self.app = app = RheaRun(SerialComm(), cfg)
        x = app.cgs.node_coords(app.geometry)[:, :3]
        center = 0.8 * unit_vector(self.rng)
        app.T = app.T + PLUME_AMPLITUDE * np.exp(
            -((x - center) ** 2).sum(axis=1) / (2.0 * PLUME_WIDTH**2)
        )

    def run(self, seconds: float, ops: Ops) -> None:
        app = self.app
        cycles = 1 if self.quick else max(1, round(seconds / SECONDS_PER_CYCLE))
        for _ in range(cycles):
            for _ in range(app.cfg.picard_per_adapt):
                with ops.time("picard", "apps"):
                    result = app.picard_step()
                ops.failed += int(not result.converged)
            with ops.time("adapt", "apps"):
                app.adapt()

    def verify(self, ops: Ops) -> int:
        return int(not np.isfinite(self.app.velocity_rms()))

    def inputs(self) -> dict:
        return {"elements": int(self.app.forest.global_count),
                "iterations": [r.iterations for r in self.app.stokes_history]}

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        app = self.app
        hist = app.stokes_history
        nelem = app.mesh.nelem_local

        def timing(key: str) -> float:
            return median([r.timings[key] for r in hist])

        cg_apply = probe(rec, "cg_apply", "mangll", app.cgs.elem_laplacian, reps=5)
        A = app.stokes.assemble(app.viscosity_field(), app.body_force())[0]
        with rec.span("amg_setup", "solvers", probe=True):
            ml = smoothed_aggregation(A, block_size=app.dim)
        with rec.span("vcycle", "solvers", probe=True):
            ml.vcycle(np.ones(A.shape[0]))
        total = sum(app.timers.values())
        return {
            "mangll.cg_apply_us_per_elem": 1e6 * cg_apply / nelem,
            "solvers.assemble_s": timing("assemble"),
            "solvers.amg_setup_s": timing("amg_setup"),
            "solvers.krylov_other_s": timing("krylov_other"),
            "solvers.vcycle_ms": 1e3 * sum(r.timings["vcycle"] for r in hist)
            / sum(r.vcycles for r in hist),
            "solvers.minres_iters": sum(r.iterations for r in hist),
            "solvers.vcycles": sum(r.vcycles for r in hist),
            "solvers.amg_levels": ml.num_levels,
            "solvers.amg_op_complexity": ml.operator_complexity(),
            "apps.rhea.solve_s": app.timers["solve"],
            "apps.rhea.vcycle_s": app.timers["vcycle"],
            "apps.rhea.amr_s": app.timers["amr"],
            "apps.rhea.amr_share": app.timers["amr"] / total,
            "apps.rhea.adapt_p50_ms": 1e3 * median(ops.samples["adapt"]),
            "apps.rhea.elements": int(app.forest.global_count),
        }
