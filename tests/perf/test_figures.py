"""The paper-figure generator: modeled rows are pure, lab rows come from a suite file."""

import json

import numpy as np
import pytest

from benchmarks import figures

# Every metric the figures read, with plausible values; no suite file involved.
LAB = figures.Lab({
    "p4est.new_s": 1e-4, "p4est.refine_s": 2e-3, "p4est.partition_s": 5e-4,
    "p4est.balance_s": 0.18, "p4est.ghost_s": 0.11, "p4est.nodes_s": 0.19,
    "p4est.balance_s_per_moct": 10.2, "p4est.nodes_s_per_moct": 10.6, "p4est.octants": 27880,
    "apps.advect.amr_share": 0.35, "apps.advect.l2_err": 0.005,
    "apps.advect.mass_drift": 1e-6, "apps.advect.elements": 3979,
    "apps.rhea.solve_s": 0.3, "apps.rhea.vcycle_s": 0.2, "apps.rhea.amr_s": 0.45,
    "apps.rhea.elements": 808, "solvers.minres_iters": 564, "solvers.vcycles": 576,
    "apps.dgea.elements": 864, "apps.dgea.mesh_s": 0.5, "apps.dgea.us_per_elem_step": 540.0,
    "apps.dgea.energy": 2.8e-10,
})


# --- the shapes the modeled rows must have, from paper constants and counts alone ---------


def test_fig4_model_shape():
    eff = figures.fig4_model()
    assert 0.5 < eff["balance"][-1] < 0.85  # paper: 65 %
    assert 0.55 < eff["nodes"][-1] < 0.9  # paper: 72 %
    assert all(np.diff(eff["balance"]) < 0) and all(np.diff(eff["nodes"]) < 0)
    assert eff["nodes"][-1] > eff["balance"][-1]  # Nodes scales better, as in the paper


def test_fig5_model_shape():
    _, amr, eff = zip(*figures.fig5_model())
    assert 6.5 < amr[0] < 7.5 and 22.0 < amr[-1] < 32.0  # paper: 7 % -> 27 %
    assert 0.62 < eff[-1] < 0.78  # paper: 70 %


def test_fig7_model_shape():
    _, solve, vcycle, amr, *_ = zip(*figures.fig7_model())
    assert all(a < 0.25 for a in amr)  # AMR stays per-mill, like the paper
    assert list(vcycle) == sorted(vcycle) and vcycle[-1] > vcycle[0]
    assert (solve[0], vcycle[0], amr[0]) == (33.7, 66.2, 0.07)  # pinned to the 13.8K column


def test_fig9_model_shape():
    _, mesh, wave, eff, *_ = zip(*figures.fig9_model())
    assert all(0.95 < e < 1.05 for e in eff)
    assert wave[-1] < wave[0] / 5
    assert list(mesh) == sorted(mesh) and mesh[-1] > mesh[0]
    assert mesh[-1] < 0.01 * wave[-1] * 1e4  # paper: 47.6 s vs 1.89 s/step x 1e4 steps


def test_fig10_model_shape():
    rows = figures.fig10_model()
    wave, eff = list(zip(*rows))[4:6]
    assert all(e > 0.98 for e in eff)
    assert max(wave) / min(wave) < 1.05
    for gpus, elements, mesh, transfer, us, *_ in rows:
        assert transfer < 120.0
        assert mesh + transfer < 0.05 * 1e4 * us * 1e-6 * elements / gpus
    gpus, elements, mesh_p, _, wave_p, _, tflops_p = figures.FIG10_PAPER[0]
    assert rows[0][:3] + [rows[0][4], rows[0][6]] == [gpus, elements, mesh_p, wave_p, tflops_p]


def test_amr_savings_model_shape():
    m = figures.amr_savings_model()
    assert m["ratio"] > 2.0 and m["ratio_paper"] > 100.0


# --- lab rows: looked up, never computed; modeled rows: blind to them ---------------------


def test_modeled_rows_ignore_every_lab_value():
    scaled = figures.Lab({k: v * 0.37 for k, v in LAB.items()})
    for figure in figures.FIGURES:
        a, b = figure(LAB), figure(scaled)
        assert a.model == b.model
        assert a.lab != b.lab or not a.lab
        assert f"shape held: {'yes' if a.held else 'no'} (" in a.text()
    # the verdict follows the lab numbers it names
    assert figures.fig7(LAB).held
    assert not figures.fig7(figures.Lab(LAB, **{"apps.rhea.amr_s": 0.6})).held


def suite_file(tmp_path, runs):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"runs": runs}))
    return path


def traced(workload, quick=False):
    return {"workload": workload, "traced": True, "quick": quick, "metrics": dict(LAB)}


def test_a_metric_is_read_on_its_owner_at_full_size_only(tmp_path):
    owners = ("forest_weak", "advect_amr", "stokes_picard", "wave_prop")
    full = figures.load_lab(suite_file(tmp_path, [traced(w) for w in owners]))
    assert full == LAB
    # wave_prop present only as a toy-size passenger of other runs, and as a --quick run
    runs = [traced(w) for w in owners[:3]] + [traced("wave_prop", quick=True)]
    partial = figures.load_lab(suite_file(tmp_path, runs))
    assert "apps.dgea.mesh_s" not in partial
    with pytest.raises(figures.MissingMetric, match=r"apps\.dgea\..*'wave_prop'"):
        figures.fig9(partial)
    # a BENCH_<n>.json keeps the suite file under "change"
    bench = tmp_path / "BENCH_0.json"
    halves = {"parent": {"runs": []}, "change": {"runs": [traced("wave_prop")]}}
    bench.write_text(json.dumps(halves))
    assert "apps.dgea.mesh_s" in figures.load_lab(bench)


def test_missing_metric_fails_the_command(tmp_path, capsys):
    path = suite_file(tmp_path, [traced("forest_weak")])
    assert figures.main([str(path), "--check"]) == 2
    assert "owner workload 'advect_amr'" in capsys.readouterr().err


# --- EXPERIMENTS.md cannot drift ------------------------------------------------------------


def test_check_passes_on_the_committed_tables_and_fails_on_an_edited_one(tmp_path, capsys):
    assert figures.main(["--check"]) == 0, capsys.readouterr().out
    edited = tmp_path / "EXPERIMENTS.md"
    edited.write_text(figures.EXPERIMENTS.read_text().replace("0.6555", "0.6565"))
    assert figures.main(["--check"], experiments=edited) == 1
    assert "-220320               0.6565" in capsys.readouterr().out
    assert "0.6565" in edited.read_text()  # --check writes nothing
    with pytest.raises(ValueError, match="figures:fig4"):  # a lost marker is not "up to date"
        figures.render("no markers here", {"fig4": "x"})
