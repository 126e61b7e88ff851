"""advect_amr — paper Fig. 5: dG advection with a dynamic adapt cycle every 10 steps.

``AdvectionRun`` at degree 3, levels 1–3 (~3K elements), the four fronts
rotated by a seeded rotation.  One op is one ``lsrk45`` step (~0.15 s);
every 10th step is followed by an adapt op, one ``run.adapt()`` (~0.9 s:
mark, adapt, transfer, repartition, ghost/mesh/bind rebuild).
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List

import numpy as np

from repro.apps.advection.driver import AdvectionConfig, AdvectionRun
from repro.apps.advection.fronts import SphericalFronts, rotate_points
from repro.io.store import DiskCheckpointStore
from repro.mangll.compiler import KernelCache, compile_dg_rhs, model_kind
from repro.mangll.mesh import build_mesh
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est import checkpoint as forest_checkpoint
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import SerialComm

from ..stats import median
from . import Ops, Workload, probe, unit_vector

SECONDS_PER_CYCLE = 2.1  # 10 steps + 1 adapt on the reference box
MAX_MASS_DRIFT = 1e-4
MAX_L2_ERROR = 0.05


class W(Workload):
    name = "advect_amr"
    primary = "step"

    def setup(self) -> None:
        centers = rotate_points(
            SphericalFronts().centers, unit_vector(self.rng),
            float(self.rng.uniform(0.0, 2.0 * np.pi)),
        )
        cfg = AdvectionConfig(
            degree=3, base_level=1, max_level=2 if self.quick else 3, adapt_every=10
        )
        self.steps_per_cycle = 3 if self.quick else cfg.adapt_every
        self.app = AdvectionRun(SerialComm(), cfg, SphericalFronts(centers=centers))
        self.elements0 = self.app.global_elements()
        self.mass0 = self.app.mass()
        self.app.solver.rhs(self.app.q, 0.0)  # warm the kernel before timing
        self.adapt_rebalance: List[float] = []
        self.adapts: list = []

    def run(self, seconds: float, ops: Ops) -> None:
        app = self.app
        cycles = 1 if self.quick else max(1, round(seconds / SECONDS_PER_CYCLE))
        for _ in range(cycles):
            dt = app.solver.stable_dt(app.q, cfl=app.cfg.cfl)
            for _ in range(self.steps_per_cycle):
                with ops.time("step", "mangll"):
                    app.q = lsrk45_step(app.q, app.t, dt, app.solver)
                app.t += dt
                app.step_count += 1
            before = app.timers.seconds.get("adapt", 0.0)
            with ops.time("adapt", "apps"):
                app.adapt()
            self.adapt_rebalance.append(app.timers.seconds["adapt"] - before)
            self.adapts.append(app.last_adapt)

    def verify(self, ops: Ops) -> int:
        self.mass_drift = abs(self.app.mass() - self.mass0) / abs(self.mass0)
        self.l2_err = self.app.l2_error()
        return int(self.mass_drift > MAX_MASS_DRIFT) + int(self.l2_err > MAX_L2_ERROR)

    def inputs(self) -> dict:
        return {"elements0": self.elements0, "elements": self.app.global_elements()}

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        app, cfg = self.app, self.app.cfg
        forest, ghost, mesh = app.forest, app.ghost, app.mesh
        nelem = mesh.nelem_local

        ctx = MeshContext(forest, ghost, mesh, app.comm)
        out = {
            "p4est.ghost_p1_ms": 1e3 * probe(rec, "ghost_p1", "p4est", lambda: build_ghost(forest)),
            "p4est.nodes_ms": 1e3 * probe(rec, "nodes", "p4est", lambda: lnodes(forest, ghost, 1)),
            "mangll.build_mesh_ms": 1e3 * probe(
                rec, "build_mesh", "mangll",
                lambda: build_mesh(forest, app.geometry, cfg.degree, ghost)),
            "mangll.bind_ms": 1e3 * probe(
                rec, "bind", "mangll", lambda: DGOperator(app.model, cfg.degree).bind(ctx)),
            "mangll.rhs_us_per_elem": 1e6 / nelem * probe(
                rec, "rhs", "mangll", lambda: app.solver.rhs(app.q, app.t), reps=5),
            "mangll.transfer_ms": 1e3 * median(rec.durations("Transfer", probe=False)),
            "amr.adapt_rebalance_ms": 1e3 * median(self.adapt_rebalance),
            "amr.refined_frac": median(
                [a.refined / a.elements_before for a in self.adapts]),
            "amr.coarsened_frac": median(
                [a.coarsened / a.elements_before for a in self.adapts]),
            "amr.moved_frac": median([a.moved / a.elements_after for a in self.adapts]),
        }
        with tempfile.TemporaryDirectory() as tmp:
            kind = model_kind(app.model)
            out["mangll.compile_cold_s"] = probe(
                rec, "compile_cold", "mangll",
                lambda: compile_dg_rhs(3, cfg.degree, app.model.nfields, kind,
                                       cache=KernelCache(os.path.join(tmp, "kernels"))),
                reps=1)
            out.update(self._checkpoint(rec, os.path.join(tmp, "ckpt")))

        # Computed from the element shape, not measured (labelled as estimates).
        npts, nq, nf = mesh.npts, cfg.degree + 1, app.model.nfields
        flop = 2.0 * nf * npts * (3 * nq + 40)
        nbytes = 8.0 * npts * (2 * nf + 10)
        out.update({
            "mangll.rhs_flop_est": flop,
            "mangll.rhs_bytes_est": nbytes,
            "mangll.rhs_flop_per_byte": flop / nbytes,
        })

        integrate = sum(ops.samples["step"])
        adapt, rebuild = app.timers.seconds["adapt"], app.timers.seconds["ghost+mesh"]
        out.update({
            "apps.advect.integrate_s": integrate,
            "apps.advect.adapt_s": adapt,
            "apps.advect.rebuild_s": rebuild,
            "apps.advect.amr_share": (adapt + rebuild) / (integrate + adapt + rebuild),
            "apps.advect.adapt_p50_ms": 1e3 * median(ops.samples["adapt"]),
            "apps.advect.l2_err": self.l2_err,
            "apps.advect.mass_drift": self.mass_drift,
            "apps.advect.elements": app.global_elements(),
        })
        return out

    def _checkpoint(self, rec, root: str) -> Dict[str, float]:
        """Save/restore the final state through a disk store (the io layer)."""
        app = self.app
        store = DiskCheckpointStore(root)
        save = probe(rec, "ckpt_save", "io", lambda: store.save(forest_checkpoint.save(
            app.forest, fields={"q": app.q}, meta={"t": app.t})), reps=1)
        restore = probe(rec, "ckpt_restore", "io", lambda: forest_checkpoint.restore(
            app.conn, app.comm, store.load()), reps=1)
        nbytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs
        )
        return {"io.ckpt_save_ms": 1e3 * save, "io.ckpt_restore_ms": 1e3 * restore,
                "io.ckpt_bytes": nbytes}
