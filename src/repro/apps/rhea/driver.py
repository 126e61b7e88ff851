"""Rhea driver: Picard iterations with interleaved dynamic AMR (§IV-A).

The Fig. 7 scenario: a fixed present-day-style temperature field drives a
nonlinear Stokes problem (lagged-viscosity Picard); static data-adaptive
refinements resolve temperature variation and the narrow plate-boundary
weak zones before the solve, and further solution-adaptive refinements
based on strain rates and viscosity gradients are interleaved with the
nonlinear iterations.  The driver times three buckets — ``solve`` (all
Krylov work except the V-cycle), ``vcycle``, and ``amr`` — matching the
three rows of the paper's runtime table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.amr.driver import adapt_and_rebalance, mark_fixed_fraction
from repro.apps.rhea.rheology import PlateModel, Rheology, synthetic_temperature
from repro.apps.rhea.stokes import StokesProblem, StokesResult
from repro.mangll.cgops import CGSpace
from repro.mangll.geometry import MultilinearGeometry, ShellGeometry, element_centers
from repro.mangll.mesh import build_mesh
from repro.p4est.balance import balance
from repro.p4est.builders import shell, unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel.comm import Comm
from repro.trace.tracer import PHASE_AMR, phase


@dataclass
class RheaConfig:
    """Parameters for a Rhea run."""

    domain: str = "shell"  # "shell", "box2d", "box3d"
    base_level: int = 1
    max_level: int = 3
    rayleigh: float = 1e4
    picard_per_adapt: int = 2  # "every 2-8 nonlinear iterations"
    refine_fraction: float = 0.08
    coarsen_fraction: float = 0.05
    stokes_tol: float = 1e-6
    stokes_maxiter: int = 300
    inner_radius: float = 0.55
    use_plates: bool = True
    validate_every: int = 0  # check forest invariants every N adapt cycles (0 = off)


class RheaRun:
    """A mantle-convection nonlinear solve with dynamic AMR."""

    def __init__(self, comm: Comm, config: Optional[RheaConfig] = None) -> None:
        self.comm = comm
        self.cfg = config or RheaConfig()
        cfg = self.cfg
        if cfg.domain == "shell":
            self.conn = shell(cfg.inner_radius, 1.0)
            self.geometry = ShellGeometry(cfg.inner_radius, 1.0)
            self.dim = 3
        elif cfg.domain == "box2d":
            self.conn = unit_square()
            self.geometry = MultilinearGeometry(self.conn)
            self.dim = 2
        elif cfg.domain == "box3d":
            self.conn = unit_cube()
            self.geometry = MultilinearGeometry(self.conn)
            self.dim = 3
        else:
            raise ValueError(f"unknown domain {cfg.domain!r}")

        plates = PlateModel() if (cfg.use_plates and cfg.domain == "shell") else None
        self.rheology = Rheology(plates=plates)
        self.timers: Dict[str, float] = {"solve": 0.0, "vcycle": 0.0, "amr": 0.0}
        self.picard_count = 0
        self.adapt_count = 0
        self.stokes_history: List[StokesResult] = []
        self.mesh = None  # the first _rebuild has no outgoing mesh to keep rows of

        self.forest = Forest.new(self.conn, comm, level=cfg.base_level)
        self._static_adapt()
        self._rebuild()
        self.T = self._temperature_field()
        self.u = np.zeros((self.cgs.ln.num_local_nodes, self.dim))
        self.II_elem = np.full((self.forest.local_count, self.cgs.npts), 1e-12)

    # --- setup ----------------------------------------------------------------------

    def _temperature_field(self) -> np.ndarray:
        xy = self.cgs.node_coords(self.geometry)
        if self.cfg.domain == "shell":
            return synthetic_temperature(xy[:, :3], self.cfg.inner_radius)
        # Box: conductive profile + perturbation (classic Rayleigh-Benard).
        z = xy[:, self.dim - 1]
        T = 1.0 - z
        T += 0.05 * np.cos(np.pi * xy[:, 0]) * np.sin(np.pi * z)
        return T

    def _static_adapt(self) -> None:
        """Data-adaptive refinement: temperature variation + weak zones."""
        with phase(PHASE_AMR):
            self._static_adapt_body()

    def _static_adapt_body(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.cfg.max_level - self.cfg.base_level):
            centers = element_centers(self.forest.local, self.geometry)
            mark = np.zeros(self.forest.local_count, dtype=bool)
            if self.cfg.domain == "shell":
                if self.rheology.plates is not None:
                    # Region test: the thin weak zones must be caught even
                    # when much narrower than the element, so widen the
                    # band by the element's angular radius.
                    octs = self.forest.local
                    L = self.forest.D.root_len
                    h_frac = octs.lens().astype(np.float64) / L
                    span = 1.0 - self.cfg.inner_radius
                    r_out = self.cfg.inner_radius + (
                        (octs.z + octs.lens()) / L
                    ) * span
                    pm = self.rheology.plates
                    r = np.linalg.norm(centers, axis=-1)
                    rhat = centers / np.maximum(r, 1e-300)[:, None]
                    shallow = r_out > (1.0 - pm.depth_extent)
                    for pole in pm.poles:
                        p = pole / np.linalg.norm(pole)
                        ang = np.abs(rhat @ p)
                        mark |= shallow & (ang < pm.half_width + 0.9 * h_frac)
                T = synthetic_temperature(centers, self.cfg.inner_radius)
                base = 0.1 + 0.8 * (
                    1.0
                    - (np.linalg.norm(centers, axis=-1) - self.cfg.inner_radius)
                    / (1 - self.cfg.inner_radius)
                ).clip(0, 1)
                mark |= np.abs(T - base) > 0.05
            else:
                mark |= np.abs(centers[:, 0] - 0.5) < 0.25
            mark &= self.forest.local.level < self.cfg.max_level
            from repro.parallel.ops import LOR

            if not bool(self.comm.allreduce(bool(mark.any()), LOR)):
                break
            self.forest.refine(mask=mark, maxlevel=self.cfg.max_level)
        balance(self.forest)
        self.forest.partition()
        self.timers["amr"] += time.perf_counter() - t0

    def _rebuild(self) -> None:
        t0 = time.perf_counter()
        with phase(PHASE_AMR):
            self.ghost = build_ghost(self.forest)
            self.mesh = build_mesh(
                self.forest, self.geometry, 1, self.ghost, previous=self.mesh
            )
            self.ln = lnodes(self.forest, self.ghost, 1)
            self.cgs = CGSpace(self.mesh, self.ln, self.comm)
            self.stokes = StokesProblem(self.cgs)
            bnd = self.cgs.boundary_node_mask(self.conn)
            self._no_slip = np.repeat(bnd[:, None], self.dim, axis=1)
            self._no_slip.flags.writeable = False
        self._built_revision = self.forest.revision
        self.timers["amr"] += time.perf_counter() - t0

    # --- physics --------------------------------------------------------------------

    def _element_T(self) -> np.ndarray:
        """Temperature at element geometric nodes (nelem, npts)."""
        return self.cgs.element_values(self.T)

    def viscosity_field(self) -> np.ndarray:
        """Nodal-per-element viscosity from the current T and strain rate."""
        nl = self.mesh.nelem_local
        x = self.mesh.coords[:nl]
        return self.rheology.viscosity(self._element_T(), self.II_elem, x)

    def body_force(self) -> np.ndarray:
        """Boussinesq buoyancy Ra T e_up at element nodes."""
        nl = self.mesh.nelem_local
        x = self.mesh.coords[:nl]
        Te = self._element_T()
        f = np.zeros((nl, self.cgs.npts, self.dim))
        if self.cfg.domain == "shell":
            r = np.linalg.norm(x, axis=-1)
            rhat = x / np.maximum(r, 1e-300)[..., None]
            f[:] = self.cfg.rayleigh * Te[..., None] * rhat[..., : self.dim]
        else:
            f[..., self.dim - 1] = self.cfg.rayleigh * Te
        return f

    def _fixed_velocity(self) -> np.ndarray:
        """No-slip on all physical boundaries (see DESIGN.md substitution),
        as a read-only (n_nodes, dim) mask built once per forest revision."""
        return self._no_slip

    # --- the nonlinear loop --------------------------------------------------------------

    def picard_step(self) -> StokesResult:
        """One lagged-viscosity iteration: viscosity from the last
        velocity, then a preconditioned MINRES Stokes solve."""
        eta = self.viscosity_field()
        force = self.body_force()
        result = self.stokes.solve(
            eta,
            force,
            self._fixed_velocity(),
            tol=self.cfg.stokes_tol,
            maxiter=self.cfg.stokes_maxiter,
        )
        self.timers["vcycle"] += result.timings["vcycle"]
        self.timers["solve"] += (
            result.timings["assemble"]
            + result.timings["amg_setup"]
            + result.timings["krylov_other"]
        )
        self.u = result.u
        self.II_elem = self.stokes.strain_rate_invariant(self.u)
        self.picard_count += 1
        self.stokes_history.append(result)
        return result

    def adapt(self) -> None:
        """Solution-adaptive refinement from strain rate + viscosity
        gradients, carrying T (and resetting the lagged strain rate).

        The mesh, its spaces and the Stokes problem are rebuilt only when
        the adapt changed the forest (its ``revision``)."""
        t0 = time.perf_counter()
        with phase(PHASE_AMR):
            eta = self.viscosity_field()
            log_eta_range = np.log10(eta.max(axis=1)) - np.log10(eta.min(axis=1))
            strain = np.sqrt(self.II_elem).max(axis=1)
            smax = max(float(strain.max()), 1e-30)
            indicator = log_eta_range + strain / smax
            refine, coarsen = mark_fixed_fraction(
                indicator,
                self.comm,
                self.cfg.refine_fraction,
                self.cfg.coarsen_fraction,
            )
            Tq = self._element_T()
            _, (Tq2,) = adapt_and_rebalance(
                self.forest,
                refine,
                coarsen,
                fields=[Tq],
                degree=1,
                min_level=self.cfg.base_level,
                max_level=self.cfg.max_level,
            )
        self.timers["amr"] += time.perf_counter() - t0
        if self.forest.revision != self._built_revision:
            self._rebuild()
        t0 = time.perf_counter()
        with phase(PHASE_AMR):
            self.T = self._nodal_from_element(Tq2)
            nl = self.mesh.nelem_local
            self.u = np.zeros((self.ln.num_local_nodes, self.dim))
            self.II_elem = np.full((nl, self.cgs.npts), 1e-12)
        self.adapt_count += 1
        self.timers["amr"] += time.perf_counter() - t0
        if (
            self.cfg.validate_every > 0
            and self.adapt_count % self.cfg.validate_every == 0
        ):
            from repro.p4est.validate import validate_forest

            validate_forest(self.comm, self.forest, ghost=self.ghost)

    def _nodal_from_element(self, q_elem: np.ndarray) -> np.ndarray:
        """Recover a cG nodal field from per-element geometric values.

        Accumulates through non-hanging slots only (every independent node
        has at least one such incidence) and averages.
        """
        nloc = self.ln.num_local_nodes
        acc = np.zeros(nloc)
        cnt = np.zeros(nloc)
        nelem = self.mesh.nelem_local
        ident = np.ones((nelem, self.cgs.npts), dtype=bool)
        eye = np.eye(self.cgs.npts)
        for elems, R in self.cgs.constraint_groups():
            ident[elems] = np.abs(R - eye).sum(axis=1) < 1e-12
        ids = self.ln.element_nodes[:nelem][ident]
        np.add.at(acc, ids, q_elem[:nelem][ident])
        np.add.at(cnt, ids, 1.0)
        acc = self.ln.scatter_reverse_add(self.comm, acc)
        cnt = self.ln.scatter_reverse_add(self.comm, cnt)
        return acc / np.maximum(cnt, 1.0)

    def run(self, n_picard: int) -> None:
        """Run Picard iterations with AMR every ``picard_per_adapt``."""
        for _ in range(n_picard):
            self.picard_step()
            if self.picard_count % self.cfg.picard_per_adapt == 0:
                self.adapt()

    # --- diagnostics -----------------------------------------------------------------------

    def runtime_percentages(self) -> Dict[str, float]:
        """The Fig. 7 rows: solve / V-cycle / AMR shares of total time."""
        total = max(sum(self.timers.values()), 1e-300)
        return {k: 100.0 * v / total for k, v in self.timers.items()}

    def velocity_rms(self) -> float:
        """Root mean square of the owned velocity components."""
        owned = self.ln.is_owned()
        from repro.parallel.ops import SUM

        num = self.comm.allreduce(float((self.u[owned] ** 2).sum()), SUM)
        den = self.comm.allreduce(float(owned.sum() * self.dim), SUM)
        return float(np.sqrt(num / max(den, 1)))
