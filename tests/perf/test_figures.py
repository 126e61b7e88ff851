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


# --- the BENCH blocks: read from the file they name ---------------------------------------

BENCHES = figures.committed_benches()


def side(values, traced_value=None):
    """One side of a BENCH file: ``{seed: value}`` as untraced runs, plus one traced run."""
    runs = [{"workload": "w", "seed": s, "traced": False, "metrics": {"wall_s": v}}
            for s, v in values.items()]
    if traced_value is not None:
        runs.append({"workload": "w", "seed": 0, "traced": True,
                     "metrics": {"wall_s": traced_value}})
    return {"runs": runs}


def test_claim_pairs_are_matched_by_seed_over_untraced_runs():
    parent = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    # listed in reverse: paired by position, the change would win only two of four
    change = dict(reversed([(0, 0.9), (1, 1.9), (2, 2.9), (3, 4.1)]))
    bench = {"claim": {"workload": "w", "metric": "wall_s"},
             "parent": side(parent, traced_value=0.1), "change": side(change, traced_value=9.9)}
    line = figures.claim_line(bench, "BENCH_0.json")
    assert "`w` `wall_s` 2.5 → 2.4 s, 0.9600 of the parent" in line
    assert "better in 3 of 4 pairs by seed" in line
    assert "0.04× the parent's quartile distance" in line  # (2.5 - 2.4) / (3.75 - 1.25)


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.stem)
def test_claim_lines_read_the_committed_files(path):
    bench = json.loads(path.read_text())
    block = figures.bench_block(bench, path.name)
    if bench["claim"] is None:  # BENCH_17: no claim, only the rows that are not ok
        assert "**Claim**" not in block
        rows = block.split("```text\n")[1].split("\n```")[0].splitlines()[1:]
        assert rows and all(figures.VERDICT.search(r).group(1) != "ok" for r in rows)
        return
    won = {"BENCH_43.json": 9, "BENCH_44.json": 9, "BENCH_47.json": 7}.get(path.name, 10)
    assert block.startswith(f"**Claim** (`{path.name}`)")
    assert f"better in {won} of 10 pairs by seed" in block
    if "compare" not in bench:  # BENCH_16: the claim line alone
        assert "\n" not in block


def test_claim_medians_of_the_two_newest_files():
    # Named, not BENCHES[-2:]: the two that were newest when this was written.
    names = ("BENCH_43.json", "BENCH_44.json", "BENCH_47.json")
    read = {p.name: figures.bench_block(json.loads(p.read_text()), p.name)
            for p in BENCHES if p.name in names}
    assert "`stokes_picard` `op_p50_ms` 84.817 → 68.853 ms" in read["BENCH_43.json"]
    assert "`stokes_picard` `wall_s` 0.46153 → 0.39412 s" in read["BENCH_44.json"]
    assert "`stokes_picard` `wall_s` 0.38603 → 0.34077 s" in read["BENCH_47.json"]
    for key in ("compare", "rerun", "first_round"):
        assert f"full table in `BENCH_43.json` (`{key}`)" in read["BENCH_43.json"]


def test_a_block_naming_a_missing_bench_file_fails_the_command(tmp_path, capsys):
    doc = tmp_path / "PERFORMANCE.md"
    doc.write_text("<!-- figures:bench999 -->\n<!-- /figures:bench999 -->\n")
    assert figures.main(["--check"], documents=(doc,)) == 2
    assert "BENCH_999.json" in capsys.readouterr().err


# --- the documents cannot drift -------------------------------------------------------------


def test_check_passes_on_the_committed_tables_and_fails_on_an_edited_one(tmp_path, capsys):
    assert figures.main(["--check"]) == 0, capsys.readouterr().out
    experiments, performance = tmp_path / "EXPERIMENTS.md", tmp_path / "PERFORMANCE.md"
    experiments.write_text(figures.EXPERIMENTS.read_text().replace("0.6555", "0.6565"))
    performance.write_text(figures.PERFORMANCE.read_text())
    assert figures.main(["--check"], documents=(experiments, performance)) == 1
    out = capsys.readouterr().out
    assert "-220320               0.6565" in out
    assert "EXPERIMENTS.md: stale" in out and "PERFORMANCE.md: ok" in out
    assert "0.6565" in experiments.read_text()  # --check writes nothing
    committed = figures.PERFORMANCE.read_text()
    edits = {
        "a bench claim line": ("84.817 → 68.853", "84.817 → 68.854"),
        "a bench compare row": ("0.46153 [  0.44432,", "0.46153 [  0.44433,"),
        "the trend": ("| 0.5466 | 5.316 |", "| 0.5466 | 5.317 |"),
    }
    for where, (old, new) in edits.items():
        assert committed.count(old) == 1, where
        performance.write_text(committed.replace(old, new))
        assert figures.main(["--check"], documents=(performance,)) == 1, where
        line = next(line for line in committed.splitlines() if old in line)
        assert f"+{line}\n" in capsys.readouterr().out  # the diff restores the file's line
    with pytest.raises(ValueError, match="figures:fig4"):  # a lost marker is not "up to date"
        figures.render("no markers here", {"fig4": "x"})
