"""End-to-end driver for the dynamically adapted advection run (§III-B).

One :class:`AdvectionRun` owns the forest, the dG space, and the solution
field; :meth:`AdvectionRun.run` advances the LSRK(5,4) integrator and
every ``adapt_every`` steps performs the full dynamic-AMR cycle —
coarsen/refine around the moving fronts, 2:1 balance, solution transfer,
repartition with the fields carried along, ghost/mesh/space rebuild —
while timing the integration and AMR phases separately, which is exactly
the breakdown of the paper's Fig. 5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.amr.driver import adapt_and_rebalance
from repro.apps.advection.fronts import SphericalFronts
from repro.p4est import checkpoint as forest_checkpoint
from repro.parallel.run import CheckpointStore
from repro.mangll.geometry import ShellGeometry, element_centers
from repro.mangll.mesh import build_mesh
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est.balance import balance
from repro.p4est.builders import shell
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel.comm import Comm
from repro.parallel.ops import MAX, MIN, SUM
from repro.trace.tracer import PHASE_AMR, phase as trace_phase


@dataclass
class AdvectionConfig:
    """Parameters of the §III-B workload (defaults follow the paper)."""

    degree: int = 3  # "the element order in this example is 3"
    base_level: int = 0
    max_level: int = 3
    adapt_every: int = 32  # "coarsened/refined and repartitioned every 32"
    cfl: float = 0.4
    inner_radius: float = 0.55
    outer_radius: float = 1.0
    refine_band: float = 1.0  # refine if front within band * h of element
    coarsen_band: float = 3.0
    checkpoint_every: int = 0  # checkpoint every N adapt cycles (0 = off)
    validate_every: int = 0  # check forest invariants every N adapt cycles (0 = off)


@dataclass
class PhaseTimers:
    """Accumulated seconds per phase (per rank; reduce with MAX)."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, dt: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def total(self) -> float:
        return sum(self.seconds.values())

    def amr_total(self) -> float:
        return sum(v for k, v in self.seconds.items() if k != "integrate")


class AdvectionRun:
    """A running §III-B simulation on one communicator."""

    def __init__(
        self,
        comm: Comm,
        config: Optional[AdvectionConfig] = None,
        fronts: Optional[SphericalFronts] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint: Optional["forest_checkpoint.ForestCheckpoint"] = None,
    ) -> None:
        self.comm = comm
        self.cfg = config or AdvectionConfig()
        self.fronts = fronts or SphericalFronts()
        self.conn = shell(self.cfg.inner_radius, self.cfg.outer_radius)
        self.geometry = ShellGeometry(self.cfg.inner_radius, self.cfg.outer_radius)
        self.timers = PhaseTimers()
        self.store = store
        self.t = 0.0
        self.step_count = 0
        self.adapt_count = 0
        self.mesh = None  # the first _rebuild has no outgoing mesh to keep rows of

        if checkpoint is not None:
            # Restart path: rebuild forest + solution from the snapshot,
            # re-partitioned onto this communicator's rank count.
            self.forest, fields, meta = forest_checkpoint.restore(
                self.conn, comm, checkpoint
            )
            self.t = float(meta.get("t", 0.0))
            self.step_count = int(meta.get("step", 0))
            self.adapt_count = int(meta.get("adapt", 0))
            self._rebuild()
            self.q = fields["q"]
            return

        self.forest = Forest.new(self.conn, comm, level=max(self.cfg.base_level, 1))
        # Static initial adaptation toward the fronts at t=0.  The trip
        # bound must be uniform across ranks: the *local* minimum level
        # differs per rank after the first refine (and is undefined on
        # empty ranks), so reduce it globally before entering the loop.
        local_min = (
            int(self.forest.local.level.min())
            if self.forest.local_count
            else self.cfg.max_level
        )
        global_min = int(comm.allreduce(local_min, MIN))
        for _ in range(self.cfg.max_level - global_min):
            mask = self._refine_mask(0.0)
            if not bool(comm.allreduce(bool(mask.any()))):
                break
            self.forest.refine(mask=mask, maxlevel=self.cfg.max_level)
        balance(self.forest)
        self.forest.partition()
        self._rebuild()
        self.q = self.fronts.value(self._xl(), 0.0)

    @classmethod
    def from_store(
        cls,
        comm: Comm,
        store: CheckpointStore,
        config: Optional[AdvectionConfig] = None,
        fronts: Optional[SphericalFronts] = None,
    ) -> "AdvectionRun":
        """Resume from ``store``'s latest checkpoint (fresh run if empty)."""
        return cls(
            comm, config, fronts, store=store, checkpoint=store.load()
        )

    # -- internals ---------------------------------------------------------------

    def _xl(self) -> np.ndarray:
        return self.mesh.coords[: self.mesh.nelem_local]

    def _rebuild(self) -> None:
        # The outgoing binding's tables (a few per face node of the old
        # mesh) are dead: let them go before the new mesh is built.
        self.solver = self.space = None
        self.ghost = build_ghost(self.forest)
        self.mesh = build_mesh(
            self.forest, self.geometry, self.cfg.degree, self.ghost, previous=self.mesh
        )
        self.model = AdvectionModel(3, self.fronts.velocity())
        ctx = MeshContext(self.forest, self.ghost, self.mesh, self.comm)
        self.solver = DGOperator(self.model, self.cfg.degree).bind(ctx)
        self.space = self.solver.space
        # The RK register lives as long as the mesh it is shaped for.
        self._register = np.empty((self.mesh.nelem_local, self.mesh.npts))
        self._built_revision = self.forest.revision

    def _element_h(self) -> np.ndarray:
        # Physical length scale per local element from its lattice size.
        h_lat = self.forest.local.lens().astype(np.float64)
        L = self.forest.D.root_len
        span = self.cfg.outer_radius - self.cfg.inner_radius
        return h_lat / L * span

    def _refine_mask(self, t: float) -> np.ndarray:
        octs = self.forest.local
        h = self._element_h()
        centers = element_centers(octs, self.geometry)
        d = self.fronts.front_distance(centers, t)
        return (d < self.cfg.refine_band * np.maximum(h, 1e-12)) & (
            octs.level < self.cfg.max_level
        )

    def _coarsen_mask(self, t: float) -> np.ndarray:
        h = self._element_h()
        centers = element_centers(self.forest.local, self.geometry)
        d = self.fronts.front_distance(centers, t)
        return (d > self.cfg.coarsen_band * h) & (
            self.forest.local.level > max(self.cfg.base_level, 1)
        )

    # -- public API -----------------------------------------------------------------

    def adapt(self) -> None:
        """One dynamic AMR cycle: mark, adapt, transfer, repartition, and
        rebuild when the forest changed (its ``revision``)."""
        t0 = time.perf_counter()
        with trace_phase(PHASE_AMR):
            refine = self._refine_mask(self.t)
            coarsen = self._coarsen_mask(self.t)
            result, (self.q,) = adapt_and_rebalance(
                self.forest,
                refine,
                coarsen,
                fields=[self.q],
                degree=self.cfg.degree,
                max_level=self.cfg.max_level,
            )
            self.timers.add("adapt", time.perf_counter() - t0)
            t0 = time.perf_counter()
            if self.forest.revision != self._built_revision:
                self._rebuild()
            self.timers.add("ghost+mesh", time.perf_counter() - t0)
        self.adapt_count += 1
        self.last_adapt = result
        if (
            self.cfg.validate_every > 0
            and self.adapt_count % self.cfg.validate_every == 0
        ):
            from repro.p4est.validate import validate_forest

            validate_forest(self.comm, self.forest, ghost=self.ghost)
        if (
            self.store is not None
            and self.cfg.checkpoint_every > 0
            and self.adapt_count % self.cfg.checkpoint_every == 0
        ):
            self.save_checkpoint()

    def run(self, nsteps: int, dt: Optional[float] = None) -> None:
        """Advance ``nsteps`` RK steps with dynamic AMR every adapt_every."""
        if dt is None:
            dt = self.solver.stable_dt(self.q, cfl=self.cfg.cfl)
        for _ in range(nsteps):
            t0 = time.perf_counter()
            with trace_phase("Integrate"):
                self.q = lsrk45_step(self.q, self.t, dt, self.solver, self._register)
            self.t += dt
            self.step_count += 1
            self.timers.add("integrate", time.perf_counter() - t0)
            if self.step_count % self.cfg.adapt_every == 0:
                self.adapt()
                dt = self.solver.stable_dt(self.q, cfl=self.cfg.cfl)

    def save_checkpoint(self) -> Optional["forest_checkpoint.ForestCheckpoint"]:
        """Snapshot forest + solution + time state; feed the store if set.

        Collective; returns the checkpoint on the gather root (rank 0),
        ``None`` elsewhere.  Taken at adapt boundaries the snapshot is
        exact restart state: ``dt`` is recomputed from the restored field,
        so a resumed run reproduces the fault-free trajectory.
        """
        t0 = time.perf_counter()
        with trace_phase("Checkpoint"):
            ckpt = forest_checkpoint.save(
                self.forest,
                fields={"q": self.q},
                meta={"t": self.t, "step": self.step_count, "adapt": self.adapt_count},
            )
            if self.store is not None:
                self.store.save(ckpt)
        self.timers.add("checkpoint", time.perf_counter() - t0)
        return ckpt

    # -- diagnostics -----------------------------------------------------------------

    def mass(self) -> float:
        return float(self.solver.integrate_quantity(self.q)[0])

    def l2_error(self) -> float:
        """Global L2 error against the analytically advected field."""
        exact = self.fronts.value(self._xl(), self.t)
        err = self.q - exact
        nl = self.mesh.nelem_local
        wdet = self.mesh.detj[:nl] * self.mesh.weights[None, :]
        num = float((wdet * err**2).sum())
        den = float((wdet * exact**2).sum())
        num = self.comm.allreduce(num, SUM)
        den = self.comm.allreduce(den, SUM)
        return float(np.sqrt(num / max(den, 1e-300)))

    def global_elements(self) -> int:
        return self.forest.global_count

    def global_unknowns(self) -> int:
        return self.forest.global_count * self.mesh.npts

    def amr_fraction(self) -> float:
        """Max-over-ranks fraction of runtime spent in AMR operations."""
        amr = self.comm.allreduce(self.timers.amr_total(), MAX)
        tot = self.comm.allreduce(self.timers.total(), MAX)
        return amr / max(tot, 1e-300)
