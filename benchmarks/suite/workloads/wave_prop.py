"""wave_prop — paper Fig. 9: elastic wave steps on a static wavelength-adapted mesh.

``SeismicRun`` at degree 4 (864 elements, ~0.97 M unknowns), the source
at a seeded position on r = 0.85.  One op is one RK step of the compiled
elastic kernel (~0.35 s); no adapt cycle runs, and the wavelength
meshing lands in ``setup_s``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.dgea.driver import SeismicConfig, SeismicRun
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.parallel import SerialComm

from ..stats import median
from . import Ops, Workload, probe, unit_vector

OPS_PER_SECOND = 2.8
MAX_RHS_MISMATCH = 1e-13  # compiled vs. interpreted, relative


class W(Workload):
    name = "wave_prop"
    primary = "step"

    def setup(self) -> None:
        source = tuple(float(v) for v in 0.85 * unit_vector(self.rng))
        cfg = SeismicConfig(
            degree=2 if self.quick else 4, max_level=1 if self.quick else 3,
            source_position=source,
        )
        self.app = SeismicRun(SerialComm(), cfg)
        self.register = np.zeros_like(self.app.q)
        self.app.rhs(self.app.q, 0.0)  # warm the kernel before timing

    def run(self, seconds: float, ops: Ops) -> None:
        app = self.app
        dt = app.solver.stable_dt(app.q, cfl=app.cfg.cfl)
        for _ in range(2 if self.quick else max(3, round(seconds * OPS_PER_SECOND))):
            with ops.time("step", "mangll"):
                app.q = lsrk45_step(app.q, app.t, dt, app.rhs, self.register)
            app.t += dt
            app.step_count += 1

    def verify(self, ops: Ops) -> int:
        app = self.app
        self.energy = app.total_energy()
        ctx = MeshContext(app.forest, app.ghost, app.mesh, app.comm)
        reference = DGOperator(app.model, app.cfg.degree, compile=False).bind(ctx)
        want = reference.rhs(app.q, app.t)
        got = app.solver.rhs(app.q, app.t)
        scale = max(float(np.abs(want).max()), 1e-300)
        self.rhs_mismatch = float(np.abs(got - want).max()) / scale
        return int(not np.isfinite(self.energy)) + int(self.rhs_mismatch > MAX_RHS_MISMATCH)

    def inputs(self) -> dict:
        return {"elements": self.app.global_elements(),
                "source": list(self.app.cfg.source_position)}

    def layer_metrics(self, ops: Ops, rec) -> Dict[str, float]:
        app = self.app
        nelem = app.global_elements()
        rhs = probe(rec, "rhs_elastic", "mangll", lambda: app.solver.rhs(app.q, app.t), reps=5)
        return {
            "mangll.rhs_elastic_us_per_elem": 1e6 * rhs / nelem,
            "apps.dgea.mesh_s": app.meshing_seconds,
            "apps.dgea.us_per_elem_step": 1e6 * median(ops.samples["step"]) / nelem,
            "apps.dgea.energy": self.energy,
            "apps.dgea.elements": nelem,
        }
