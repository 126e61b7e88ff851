"""dGea driver: wavelength-adapted meshing and wave propagation runs.

Reproduces the §IV-B workflow: (1) *online* parallel mesh generation —
refine until every element resolves the local minimum wavelength with the
requested points-per-wavelength (paper: "degree N = 6 elements with at
least 10 points per wavelength", mesh "adapted to local wave speed");
(2) explicit LSRK(5,4) wave propagation with a Ricker point source;
optionally (3) dynamic re-adaptation that tracks the expanding wavefront
(Fig. 8, right).  Meshing time and per-step solve time are recorded
separately — the two columns of the Fig. 9 strong-scaling table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.dgea.elastic import ElasticModel
from repro.apps.dgea.prem import PREM, CMB_RADIUS_KM, EARTH_RADIUS_KM
from repro.mangll.geometry import ShellGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est.balance import balance
from repro.p4est.builders import shell
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.parallel.comm import Comm
from repro.parallel.ops import MAX, SUM
from repro.trace.tracer import PHASE_AMR, phase as trace_phase


def ricker(t: np.ndarray, frequency: float, delay: Optional[float] = None):
    """Ricker wavelet source-time function."""
    t0 = delay if delay is not None else 1.2 / frequency
    a = (np.pi * frequency * (t - t0)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


@dataclass
class SeismicConfig:
    """Parameters of a dGea run (mesh units: earth surface at r = 1)."""

    degree: int = 4
    source_frequency: float = 2.0  # in mesh-time units (c ~ O(10))
    points_per_wavelength: float = 10.0
    base_level: int = 0
    max_level: int = 4
    cfl: float = 0.4
    source_position: tuple = (0.0, 0.0, 0.85)
    source_amplitude: float = 1.0
    validate_every: int = 0  # check forest invariants every N adapt cycles (0 = off)


class SeismicRun:
    """A seismic wave propagation run on the solid-mantle shell."""

    def __init__(self, comm: Comm, config: Optional[SeismicConfig] = None) -> None:
        self.comm = comm
        self.cfg = config or SeismicConfig()
        inner = CMB_RADIUS_KM / EARTH_RADIUS_KM
        self.conn = shell(inner, 1.0)
        self.geometry = ShellGeometry(inner, 1.0)
        self.prem = PREM(outer_radius_mesh=1.0)

        def mantle_material(x):
            # The domain is the solid mantle shell; geometric boundary
            # nodes at the CMB must not sample the fluid outer core.
            r = np.linalg.norm(x, axis=-1)
            rmin = (CMB_RADIUS_KM + 2.0) / EARTH_RADIUS_KM
            xc = x * (np.maximum(r, rmin) / np.maximum(r, 1e-300))[..., None]
            return self.prem.lame_parameters(xc)

        self.model = ElasticModel(3, mantle_material)
        self.t = 0.0
        self.step_count = 0
        self.adapt_count = 0
        self.mesh = None  # the first _rebuild has no outgoing mesh to keep rows of

        t0 = time.perf_counter()
        with trace_phase("Mesh"):
            self.forest = Forest.new(self.conn, comm, level=max(1, self.cfg.base_level))
            self._mesh_to_wavelength()
            balance(self.forest)
            self.forest.partition()
            self._rebuild()
        self.meshing_seconds = time.perf_counter() - t0
        self.wave_seconds = 0.0

        nl = self.mesh.nelem_local
        self.q = np.zeros((nl, self.mesh.npts, self.model.nfields))
        self._setup_source()

    # --- meshing -----------------------------------------------------------------

    def _element_min_wavelength(self) -> np.ndarray:
        """Minimum wavelength inside each local element.

        The slow crust layers are thinner than coarse elements, so the
        minimum is taken over samples of the element's full radial extent
        (the tree-local z axis is the radial direction), not just its
        center — otherwise coarse elements skip the slow layers entirely
        and the mesh under-resolves the surface.
        """
        octs = self.forest.local
        L = self.forest.D.root_len
        inner = CMB_RADIUS_KM / EARTH_RADIUS_KM
        span = 1.0 - inner
        r_in = inner + (octs.z / L) * span
        r_out = inner + ((octs.z + octs.lens()) / L) * span
        lam = np.full(len(octs), np.inf)
        for t in np.linspace(0.0, 1.0, 5):
            r = r_in + t * (r_out - r_in)
            _, vp, vs = self.prem.evaluate(r)
            vmin = np.where(vs > 0.1, vs, vp)
            lam = np.minimum(lam, vmin / self.cfg.source_frequency)
        return lam

    def _element_size(self) -> np.ndarray:
        """Physical diameter scale of each local element."""
        L = self.forest.D.root_len
        span = 2.0  # shell diameter scale in mesh units
        return self.forest.local.lens().astype(np.float64) / L * span

    def _needs_refinement(self) -> np.ndarray:
        """Resolution rule: (degree+1) points per element must give at
        least points_per_wavelength across the local min wavelength."""
        lam = self._element_min_wavelength()
        h = self._element_size()
        pts_per_wavelength = (self.cfg.degree + 1) * lam / np.maximum(h, 1e-300)
        return (pts_per_wavelength < self.cfg.points_per_wavelength) & (
            self.forest.local.level < self.cfg.max_level
        )

    def _mesh_to_wavelength(self) -> None:
        from repro.parallel.ops import LOR

        while True:
            mask = self._needs_refinement()
            if not bool(self.comm.allreduce(bool(mask.any()), LOR)):
                break
            self.forest.refine(mask=mask, maxlevel=self.cfg.max_level)

    def _rebuild(self) -> None:
        self.solver = self.space = None  # dead: free it before the next mesh
        self.ghost = build_ghost(self.forest)
        self.mesh = build_mesh(
            self.forest, self.geometry, self.cfg.degree, self.ghost, previous=self.mesh
        )
        ctx = MeshContext(self.forest, self.ghost, self.mesh, self.comm)
        self.solver = DGOperator(self.model, self.cfg.degree).bind(ctx)
        self.space = self.solver.space
        # The RK register lives as long as the mesh it is shaped for.
        self._register = np.empty(
            (self.mesh.nelem_local, self.mesh.npts, self.model.nfields)
        )
        self._built_revision = self.forest.revision
        if hasattr(self, "_probe"):
            self._make_probe()

    # --- source -------------------------------------------------------------------

    def _setup_source(self) -> None:
        """Locate the node nearest the source point on this rank."""
        nl = self.mesh.nelem_local
        x = self.mesh.coords[:nl].reshape(-1, 3)
        src = np.asarray(self.cfg.source_position)
        if len(x):
            d = np.linalg.norm(x - src, axis=1)
            imin = int(np.argmin(d))
            dmin = float(d[imin])
        else:
            imin, dmin = -1, np.inf
        best = self.comm.allreduce(dmin, lambda a, b: min(a, b))
        self._has_source = dmin <= best + 1e-300 and np.isfinite(best)
        # Break ties: lowest rank keeps it.
        owners = self.comm.allgather(self._has_source)
        first = owners.index(True) if True in owners else -1
        self._has_source = self.comm.rank == first
        if self._has_source:
            e, p = divmod(imin, self.mesh.npts)
            self._src_elem, self._src_node = e, p
            w = self.mesh.weights[p] * self.mesh.detj[e, p]
            self._src_scale = 1.0 / max(w, 1e-300)

    def _source_rhs(self, t: float) -> Optional[np.ndarray]:
        if not self._has_source:
            return None
        amp = self.cfg.source_amplitude * ricker(
            np.array(t), self.cfg.source_frequency
        )
        return float(amp) * self._src_scale

    # --- time stepping ---------------------------------------------------------------

    def rhs(self, q: np.ndarray, t: float) -> np.ndarray:
        r = self.solver.rhs(q, t)
        s = self._source_rhs(t)
        if s is not None:
            # Vertical point force on the velocity equation.
            r[self._src_elem, self._src_node, 2] += s
        return r

    def run(self, nsteps: int, dt: Optional[float] = None) -> float:
        """Advance ``nsteps``; returns measured seconds per step (max rank)."""
        if dt is None:
            dt = self.solver.stable_dt(self.q, cfl=self.cfg.cfl)
        t0 = time.perf_counter()
        with trace_phase("WaveProp"):
            for _ in range(nsteps):
                self.q = lsrk45_step(self.q, self.t, dt, self.rhs, self._register)
                self.t += dt
                self.step_count += 1
                self.record()
        elapsed = time.perf_counter() - t0
        self.wave_seconds += elapsed
        # spmdlint: ignore[SPMD004] -- wall-clock measurement: aggregating nondeterministic per-rank timings is the point.
        per_step = self.comm.allreduce(elapsed / max(nsteps, 1), MAX)
        return float(per_step)

    # --- receivers (seismograms) -------------------------------------------------------

    def add_receivers(self, stations: np.ndarray) -> None:
        """Install receivers at physical points; velocity is recorded at
        every subsequent :meth:`run` step (rebuild after adaptation is
        automatic).  Collective."""
        self._stations = np.asarray(stations, dtype=np.float64).reshape(-1, 3)
        self._make_probe()
        self.seismogram_t: list = []
        self.seismogram_v: list = []

    def _make_probe(self) -> None:
        from repro.mangll.probes import PointProbe

        self._probe = PointProbe(
            self.forest, self.geometry, self.cfg.degree, self._stations
        )

    def record(self) -> None:
        """Append one seismogram sample (velocity vector per station)."""
        if not hasattr(self, "_probe"):
            return
        rho = self.model.material(self.mesh.coords[: self.mesh.nelem_local])[0]
        v = self.q[..., :3] / rho[..., None]
        self.seismogram_v.append(self._probe.sample(v))
        self.seismogram_t.append(self.t)

    def seismograms(self) -> tuple:
        """(times (nt,), velocities (nt, nstations, 3)) recorded so far."""
        return np.asarray(self.seismogram_t), np.asarray(self.seismogram_v)

    # --- dynamic wavefront tracking (Fig. 8, right panels) ---------------------------

    def adapt_to_wavefront(
        self, refine_threshold: float = 0.05, coarsen_threshold: float = 1e-4
    ) -> None:
        """Coarsen/refine the mesh to track the propagating wavefront.

        The per-element indicator is the maximum nodal energy density
        relative to the global maximum; the solution travels to the new
        mesh through the conservative transfer and the partition carries
        it along (the paper's optional "coarsen and refine the mesh
        during the simulation to track propagating waves").  The mesh is
        rebuilt only when the forest changed (its ``revision``).  Collective.
        """
        from repro.amr.driver import adapt_and_rebalance
        from repro.parallel.ops import MAX

        nl = self.mesh.nelem_local
        x = self.mesh.coords[:nl]
        dens = self.model.energy_density(self.q, x)
        peak = dens.max(axis=1) if nl else np.zeros(0)
        gmax = float(self.comm.allreduce(float(peak.max()) if nl else 0.0, MAX))
        if gmax <= 0:
            return
        rel = peak / gmax
        with trace_phase(PHASE_AMR):
            refine = (rel > refine_threshold) & (
                self.forest.local.level < self.cfg.max_level
            )
            # Never coarsen below the wavelength-resolution mesh.
            wave_ok = ~self._needs_refinement_after_coarsen()
            coarsen = (rel < coarsen_threshold) & wave_ok
            _, (self.q,) = adapt_and_rebalance(
                self.forest,
                refine,
                coarsen,
                fields=[self.q],
                degree=self.cfg.degree,
                max_level=self.cfg.max_level,
            )
            if self.forest.revision != self._built_revision:
                self._rebuild()
        self.adapt_count += 1
        if (
            self.cfg.validate_every > 0
            and self.adapt_count % self.cfg.validate_every == 0
        ):
            from repro.p4est.validate import validate_forest

            validate_forest(self.comm, self.forest, ghost=self.ghost)

    def _needs_refinement_after_coarsen(self) -> np.ndarray:
        """Would this element violate the wavelength rule if coarsened?"""
        lam = self._element_min_wavelength()
        h2 = 2.0 * self._element_size()  # parent size
        ppw = (self.cfg.degree + 1) * lam / np.maximum(h2, 1e-300)
        return ppw < self.cfg.points_per_wavelength

    # --- diagnostics -----------------------------------------------------------------

    def total_energy(self) -> float:
        nl = self.mesh.nelem_local
        x = self.mesh.coords[:nl]
        dens = self.model.energy_density(self.q, x)
        wdet = self.mesh.detj[:nl] * self.mesh.weights[None, :]
        return float(self.comm.allreduce(float((wdet * dens).sum()), SUM))

    def global_elements(self) -> int:
        return self.forest.global_count

    def global_unknowns(self) -> int:
        return self.forest.global_count * self.mesh.npts * self.model.nfields
