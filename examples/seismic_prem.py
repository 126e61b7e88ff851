"""§IV-B scenario: global seismic waves on a PREM-adapted mesh (Fig. 8).

The mesh of the solid-mantle shell is statically adapted to the local
minimum seismic wavelength of a PREM-style earth model (slow crust ->
fine elements, fast deep mantle -> coarse), then a Ricker point source
radiates elastic waves integrated with the LSRK(5,4) dG solver.  Writes
the wave-speed-adapted mesh and energy-density snapshots to VTK.

Run:  python examples/seismic_prem.py
"""

import numpy as np

from repro.apps.dgea.driver import SeismicConfig, SeismicRun
from repro.io.vtk import write_vtk
from repro.mangll.geometry import element_centers
from repro.parallel import SerialComm


def main():
    cfg = SeismicConfig(
        degree=3,
        source_frequency=8.0,
        base_level=1,
        max_level=3,
        points_per_wavelength=4.0,
    )
    run = SeismicRun(SerialComm(), cfg)
    print("dGea: seismic waves through a PREM-style mantle")
    print("-" * 56)
    print(f"wavelength-adapted mesh: {run.global_elements()} elements "
          f"({run.meshing_seconds:.2f} s to generate)")
    print(f"unknowns: {run.global_unknowns()} "
          f"(velocity + strain, degree {cfg.degree})")
    hist = run.forest.levels_histogram()
    levels = ", ".join(f"L{l}:{int(n)}" for l, n in enumerate(hist) if n)
    print(f"levels: {levels}  (finer near the slow crust)")

    vp, vs = run.prem.wave_speeds(element_centers(run.forest.local, run.geometry))
    write_vtk(
        "seismic_mesh.vtk",
        run.forest,
        run.geometry,
        cell_data={"vp": vp, "vs": vs},
    )

    # Receivers ("stations") on the surface at increasing distance.
    stations = np.array(
        [
            [0.0, 0.2, 0.97],
            [0.0, 0.5, 0.84],
            [0.0, 0.8, 0.56],
        ]
    )
    run.add_receivers(stations)

    for snap in range(3):
        per_step = run.run(10)
        nl = run.mesh.nelem_local
        dens = run.model.energy_density(run.q, run.mesh.coords[:nl])
        write_vtk(
            f"seismic_wavefield_{snap + 1}.vtk",
            run.forest,
            run.geometry,
            cell_data={"energy": dens.mean(axis=1)},
        )
        print(
            f"snapshot {snap + 1}: t={run.t:.4f}, "
            f"{per_step * 1e3:.1f} ms/step, total energy "
            f"{run.total_energy():.3e}"
        )
    t, v = run.seismograms()
    amp = np.linalg.norm(v, axis=2)
    print("seismogram peak |v| per station:",
          ", ".join(f"{a:.2e}" for a in amp.max(axis=0)))
    np.savetxt(
        "seismograms.txt",
        np.column_stack([t, amp]),
        header="t  |v|_station1  |v|_station2  |v|_station3",
    )
    print("wrote seismic_mesh.vtk, seismic_wavefield_[1-3].vtk, "
          "seismograms.txt")


if __name__ == "__main__":
    main()
