"""The paper's evaluation tables and the committed benchmark evidence, regenerated.

    python3 -m benchmarks.figures [BENCH_<n>.json | suite --out file] [--check]

``EXPERIMENTS.md`` holds the paper's evaluation tables (Figs. 4, 5, 7,
9, 10 and the §IV-A count).  One rule makes them deterministic.  A
*modeled* row is a pure function of paper constants and counted
structure — the ``CommStats`` of a P = 4 ``Machine`` run of the Fig. 4
pipeline, the element count of a constructed forest — and never reads a
clock.  A *lab* row is looked up by metric name in the suite file given,
on the full-size traced run of the workload that owns the metric
(``benchmarks.suite.registry``).

``docs/PERFORMANCE.md`` holds what the committed ``BENCH_<n>.json`` files
say: a ``bench<n>`` block is read from that file alone (its claim, its
stored ``compare`` rows), and the ``trend`` block puts every file's
change-side medians side by side.  No block reads a clock.

Both documents' tables are generated blocks (``<!-- figures:NAME -->``
… ``<!-- /figures:NAME -->``): a plain run rewrites them, ``--check``
only fails when a committed block differs from what the inputs produce.
With no input the lab rows come from the newest ``BENCH_<n>.json`` of the
repository root.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchmarks.suite import registry, stats, workloads  # noqa: E402
from repro.apps.rhea.driver import RheaConfig, RheaRun  # noqa: E402
from repro.p4est.balance import balance  # noqa: E402
from repro.p4est.builders import rotcubes  # noqa: E402
from repro.p4est.forest import Forest  # noqa: E402
from repro.p4est.ghost import build_ghost  # noqa: E402
from repro.p4est.nodes import lnodes  # noqa: E402
from repro.parallel import Machine, RunConfig, SerialComm  # noqa: E402
from repro.perf.machine import JAGUAR_XT5, LONGHORN_GPU, PCIE_BYTES_PER_SECOND  # noqa: E402
from repro.perf.model import (  # noqa: E402
    WeakScalingSeries,
    comm_cost_from_stats,
    format_table,
    strong_scaling_efficiency,
)

EXPERIMENTS = ROOT / "EXPERIMENTS.md"
PERFORMANCE = ROOT / "docs" / "PERFORMANCE.md"
DOCUMENTS = (EXPERIMENTS, PERFORMANCE)  # the files whose figures blocks are generated
OWNER = {m.name: m.owner for m in registry.PER_LAYER}


# --- the lab side: one lookup -------------------------------------------------------------


class MissingMetric(LookupError):
    """The input holds no full-size traced run of the metric's owner workload."""


class Lab(Dict[str, float]):
    """Per-layer metrics by name; a missing one names the run that would supply it."""

    def __missing__(self, name: str) -> float:
        raise MissingMetric(
            f"{name}: the input has no full-size traced run of its owner workload "
            f"{OWNER[name]!r} (python3 -m benchmarks.suite trace --workload {OWNER[name]} --out F)"
        )


def load_lab(path: Path) -> Lab:
    """Every per-layer metric the file holds at full size, read on its owner workload.

    ``path`` is a suite ``--out`` file or a ``BENCH_<n>.json`` (whose
    ``"change"`` half is one).  A traced run of workload X carries the
    other workloads' metrics at toy size; those, and ``--quick`` runs,
    are skipped.  Of several traced runs of one workload the last wins.
    """
    doc = json.loads(path.read_text())
    found = Lab()
    for run in doc.get("change", doc)["runs"]:
        if run["traced"] and not run["quick"]:
            found.update((k, v) for k, v in run["metrics"].items() if OWNER[k] == run["workload"])
    return found


@dataclass(frozen=True)
class Block:
    """One generated block of EXPERIMENTS.md."""

    lab: str  # from the suite file
    model: str  # from paper constants and counted structure only
    shape: str  # what was checked, on the numbers printed above it
    held: bool

    def text(self) -> str:
        parts = [p for p in (self.lab, self.model) if p]
        parts.append(f"shape held: {'yes' if self.held else 'no'} ({self.shape})")
        return "\n\n".join(parts)


def _shares(seconds: Dict[str, float]) -> Dict[str, float]:
    total = sum(seconds.values())
    return {k: 100.0 * v / total for k, v in seconds.items()}


# --- Fig. 4: weak scaling of the p4est algorithms -----------------------------------------

FIG4_CORES = [12, 60, 432, 3444, 27540, 220_320]
FIG4_LAB_LEVEL = 4  # fractal depth of the counted P = 4 run: 5,592 octants
FIG4_N_PER_CORE = 2.3e6
FIG4_PAPER_NORMALIZED = {"balance": (6.0, 9.2), "nodes": (6.2, 8.6)}  # s/(M oct/core) @12, @220K
FIG4_PAPER_EFF = {"balance": 0.65, "nodes": 0.72}  # at 220,320 cores
# The paper's per-octant rate at 12 cores: against our slower Python rate the communication
# terms would vanish and every efficiency would read 1.0.
FIG4_PAPER_RATE = {"balance": 6.0e-6, "nodes": 6.2e-6}
# The dominant loss is cascade-round growth: each x8 weak-scaling step deepens the forest by
# one level, and every further 2:1 propagation round re-traverses the octant set.
FIG4_ROUND_GROWTH = {"balance": 0.105, "nodes": 0.055}


def fig4_pipeline(comm) -> int:
    """New, Refine (fractal: children 0, 3, 5, 6), Partition, Balance, Ghost, Nodes."""

    def fractal(o):
        cid = o.child_ids()
        return ((cid == 0) | (cid == 3) | (cid == 5) | (cid == 6)) & (o.level < FIG4_LAB_LEVEL)

    forest = Forest.new(rotcubes(), comm, level=1)
    forest.refine(callback=fractal, recursive=True)
    forest.partition()
    balance(forest)
    lnodes(forest, build_ghost(forest), 1)
    return forest.local_count


def fig4_model() -> Dict[str, List[float]]:
    """Modeled Balance/Nodes efficiency at ``FIG4_CORES`` from a P = 4 run's counted traffic."""
    report = Machine(RunConfig(size=4)).run(fig4_pipeline).report
    surface = (FIG4_N_PER_CORE / report.values[0]) ** (2 / 3)
    cost = comm_cost_from_stats(report.outcomes[0].stats, rounds_hint=6).scaled(surface)
    eff = {}
    for alg in ("balance", "nodes"):
        times = [
            FIG4_PAPER_RATE[alg] * FIG4_N_PER_CORE * (1.0 + FIG4_ROUND_GROWTH[alg] * i)
            + cost.modeled_seconds(JAGUAR_XT5, P)
            for i, P in enumerate(FIG4_CORES)
        ]
        eff[alg] = WeakScalingSeries(FIG4_CORES, times, alg).efficiency()
    return eff


def fig4(lab: Lab) -> Block:
    eff = fig4_model()
    paper = {a: np.linspace(1.0, e, len(FIG4_CORES)) for a, e in FIG4_PAPER_EFF.items()}
    model = format_table(
        ["cores", "balance eff (model)", "nodes eff (model)", "paper balance", "paper nodes"],
        [
            [P, eff["balance"][i], eff["nodes"][i],
             round(paper["balance"][i], 2), round(paper["nodes"][i], 2)]
            for i, P in enumerate(FIG4_CORES)
        ],
    )
    phases = ("new", "refine", "partition", "balance", "ghost", "nodes")
    pct = _shares({p: lab[f"p4est.{p}_s"] for p in phases})
    shares = format_table(
        ["algorithm", "% of runtime (forest_weak)"],
        [[k, round(v, 2)] for k, v in sorted(pct.items(), key=lambda kv: -kv[1])],
    )
    normalized = format_table(
        ["algorithm", "ours s/(M oct/core)", "paper @12", "paper @220K"],
        [[a, round(lab[f"p4est.{a}_s_per_moct"], 2), *FIG4_PAPER_NORMALIZED[a]] for a in eff],
    )
    return Block(
        f"Lab forest: {int(lab['p4est.octants'])} octants, rotcubes fractal\n\n"
        f"Runtime shares (paper: Balance+Nodes > 90%, New/Refine/Partition negligible):\n"
        f"{shares}\n\nNormalized work (paper Fig. 4 bottom):\n{normalized}",
        f"Modeled weak-scaling efficiency on Jaguar (paper: 65% Balance, 72% Nodes at "
        f"220,320 cores):\n{model}",
        "lab: Balance+Nodes > 55 % of runtime, New/Refine/Partition each below Balance",
        pct["balance"] + pct["nodes"] > 55.0
        and max(pct["new"], pct["refine"], pct["partition"]) < pct["balance"],
    )


# --- Fig. 5: weak scaling of dynamically adapted dG advection -----------------------------

FIG5_CORES = [12, 252, 2040, 16_000, 65_000, 220_320]
FIG5_BASE_AMR = 0.07  # the paper's 12-core split
FIG5_AMR_GROWTH = 0.92  # per core-count step: repartition + cascade rounds
FIG5_INTEG_GROWTH = 0.035  # per step: ghost exchange


def fig5_model() -> List[List[float]]:
    """``[cores, AMR %, end-to-end efficiency]`` from the paper's 12-core baseline split."""
    rows = []
    for i, P in enumerate(FIG5_CORES):
        t_int = (1 - FIG5_BASE_AMR) * (1 + FIG5_INTEG_GROWTH * i)
        t_amr = FIG5_BASE_AMR * (1 + FIG5_AMR_GROWTH * i)
        total = t_int + t_amr  # 1 at 12 cores
        rows.append([P, round(100.0 * t_amr / total, 1), round(1.0 / total, 3)])
    return rows


def fig5(lab: Lab) -> Block:
    amr = 100.0 * lab["apps.advect.amr_share"]
    err = lab["apps.advect.l2_err"]
    return Block(
        "Lab run (advect_amr):\n" + format_table(
            ["quantity", "measured (lab)", "paper"],
            [
                ["elements", int(lab["apps.advect.elements"]), "7.0e8 at 220K cores"],
                ["AMR+projection %", round(amr, 1), "7 -> 27"],
                ["L2 error vs analytic", round(err, 4), "(not reported)"],
                ["tracer mass rel. drift", f"{lab['apps.advect.mass_drift']:.2e}", "conserved"],
            ],
        ),
        "Modeled weak scaling on Jaguar (paper: AMR 7% -> 27%, 70% end-to-end efficiency):\n"
        + format_table(["cores", "AMR % (model)", "end-to-end eff (model)"], fig5_model()),
        "lab: time integration outweighs AMR+projection, L2 error < 0.3",
        amr < 50.0 and err < 0.3,
    )


# --- Fig. 7: Rhea runtime breakdown, and the §IV-A element count --------------------------

FIG7_PAPER = {  # cores: solve %, V-cycle %, AMR %
    13_800: (33.6, 66.2, 0.07),
    27_600: (21.7, 78.0, 0.10),
    55_100: (16.3, 83.4, 0.12),
}


def fig7_model() -> List[List[float]]:
    """``[cores, solve %, V-cycle %, AMR %, paper…]``, pinned to the 13.8K-core column.

    The V-cycle share grows because coarse-level AMG work is latency
    bound while fine-level Krylov work scales; AMR grows like Fig. 4's
    cascade, from a per-mill base.
    """
    _, base_v, base_amr = FIG7_PAPER[13_800]
    rows = []
    for i, (cores, paper) in enumerate(sorted(FIG7_PAPER.items())):
        v = base_v * 1.12**i
        amr = base_amr * (1.0 + 0.35 * i)
        rows.append([cores, round(100.0 - v - amr, 1), round(v, 1), round(amr, 2), *paper])
    return rows


def fig7(lab: Lab) -> Block:
    pct = _shares({k: lab[f"apps.rhea.{k}_s"] for k in ("solve", "vcycle", "amr")})
    split = format_table(
        ["component", "% of runtime (lab)"],
        [
            ["solve (Krylov + assembly)", round(pct["solve"], 2)],
            ["V-cycle", round(pct["vcycle"], 2)],
            ["AMR (all p4est ops + transfer)", round(pct["amr"], 2)],
        ],
    )
    return Block(
        f"Lab run (stokes_picard): {int(lab['apps.rhea.elements'])} elements, "
        f"{int(lab['solvers.minres_iters'])} MINRES iterations, "
        f"{int(lab['solvers.vcycles'])} V-cycles.\n"
        f"Measured split (the driver's three buckets):\n{split}",
        "Modeled at the paper's core counts (paper values alongside):\n" + format_table(
            ["cores", "solve% (model)", "V-cycle% (model)", "AMR% (model)",
             "paper solve%", "paper V-cycle%", "paper AMR%"],
            fig7_model(),
        ),
        "lab: solve + V-cycle > 50 % of runtime",
        pct["solve"] + pct["vcycle"] > 50.0,
    )


def amr_savings_model() -> Dict[str, float]:
    """Adapted vs. uniform element count at the same finest level (counted, not timed).

    Extrapolated to the paper's 8-level spread with surface-dominated
    refinement: adapted ~ 4^L, uniform ~ 8^L.
    """
    forest = RheaRun(SerialComm(), RheaConfig(domain="shell", base_level=1, max_level=3)).forest
    finest = int(forest.local.level.max())
    uniform = 24 * 8**finest
    ratio = uniform / forest.global_count
    return {"adapted": forest.global_count, "uniform": uniform, "ratio": ratio,
            "ratio_paper": ratio * 2.0 ** (8 - finest)}


def amr_savings(lab: Lab) -> Block:
    m = amr_savings_model()
    return Block(
        "",
        format_table(
            ["quantity", "value"],
            [
                ["adapted elements (lab)", m["adapted"]],
                ["uniform at same finest level", m["uniform"]],
                ["reduction factor (lab)", round(m["ratio"], 1)],
                ["modeled reduction at 8 levels", f"{m['ratio_paper']:.3g}"],
                ["paper", "~1000x (exascale -> petascale)"],
            ],
        ),
        "counted: > 2x at lab depth, > 100x at the paper's 8 levels",
        m["ratio"] > 2.0 and m["ratio_paper"] > 100.0,
    )


# --- Fig. 9: strong scaling of global seismic wave propagation ----------------------------

FIG9_PAPER = [  # cores, meshing s, wave-prop s/step, parallel efficiency, Tflops
    (32_640, 6.32, 12.76, 1.00, 25.6),
    (65_280, 6.78, 6.30, 1.01, 52.2),
    (130_560, 17.76, 3.12, 1.02, 105.5),
    (223_752, 47.64, 1.89, 0.99, 175.6),
]
FIG9_ELEMENTS = 170e6
FIG9_DEGREE = 6
WAVE_PROP_DEGREE = 4  # what benchmarks/suite/workloads/wave_prop.py runs at full size


def fig9_model() -> List[list]:
    """``[cores, mesh s, wave s/step, efficiency, Tflops, paper…]``.

    The kernel is pinned to the paper's 32K-core row and halves with the
    cores; the face-ghost exchange does not, which is all that bends the
    efficiency.  Meshing is partition metadata: 40 allgathers of 32
    bytes a rank plus a term linear in P.
    """
    cores0, _, t32, _, tflops0 = FIG9_PAPER[0]
    flop_per_step = tflops0 * 1e12 * t32  # implied by the paper's Tflops column
    cores = [row[0] for row in FIG9_PAPER]
    t_wave = []
    for P in cores:
        surface_elems = (FIG9_ELEMENTS / P) ** (2 / 3) * 6
        bytes_per_stage = surface_elems * (FIG9_DEGREE + 1) ** 3 * 9 * 8
        t_wave.append(t32 * cores0 / P + 5 * JAGUAR_XT5.exchange_cost(26, bytes_per_stage))
    effs = strong_scaling_efficiency(cores, t_wave)
    return [
        [P, round(JAGUAR_XT5.allgather_cost(P, 32) * 40 + P * 2.0e-4, 2), round(t, 2),
         round(e, 3), round(flop_per_step / t / 1e12, 1), *paper]
        for (P, *paper), t, e in zip(FIG9_PAPER, t_wave, effs)
    ]


def fig9(lab: Lab) -> Block:
    nelem = int(lab["apps.dgea.elements"])
    mesh_s = lab["apps.dgea.mesh_s"]
    step_s = lab["apps.dgea.us_per_elem_step"] * nelem / 1e6
    return Block(
        f"Lab run (wave_prop, degree {WAVE_PROP_DEGREE}, compiled elastic kernel):\n"
        + format_table(
            ["quantity", "measured (lab)"],
            [
                ["elements", nelem],
                ["meshing seconds", round(mesh_s, 3)],
                ["wave-prop s/step", round(step_s, 3)],
                ["kernel us/elem/step", round(lab["apps.dgea.us_per_elem_step"], 1)],
                ["total energy (radiated)", f"{lab['apps.dgea.energy']:.3e}"],
            ],
        ),
        f"Modeled at the paper's configuration ({FIG9_ELEMENTS:.0f} elements, "
        f"N={FIG9_DEGREE}):\n" + format_table(
            ["cores", "mesh s (model)", "wave s/step (model)", "par eff (model)",
             "Tflops (model)", "paper mesh", "paper wave", "paper eff", "paper Tflops"],
            fig9_model(),
        ),
        "lab: meshing < 1 % of 1e4 steps of propagation",
        mesh_s < 0.01 * 1e4 * step_s,
    )


# --- Fig. 10: GPU weak scaling of the seismic solver --------------------------------------

FIG10_PAPER = [  # GPUs, elements, mesh s, transfer s, wave prop us/step/elem, efficiency, Tflops
    (8, 224_048, 9.40, 13.0, 29.95, 1.000, 0.63),
    (64, 1_778_776, 9.37, 21.3, 29.88, 1.000, 5.07),
    (256, 6_302_960, 10.6, 19.1, 30.03, 0.997, 20.3),
]
FIG10_DEGREE = 7
# Paper-implied single-precision work: 0.63 Tflop/s x 0.839 s per step over 224,048 elements.
FIG10_FLOPS_PER_ELEM = 2.36e6


def fig10_model() -> List[list]:
    """``[GPUs, elements, mesh s, transfer s, us/step/elem, efficiency, Tflops, paper…]``.

    Kernel and meshing are pinned to the paper's 8-GPU row; what varies
    with the GPU count is modeled: the inter-GPU face exchange (Longhorn
    network), the mesh-to-GPU transfer (PCIe + a constant context
    set-up) and a log P meshing term.
    """
    npts = (FIG10_DEGREE + 1) ** 3
    bytes_per_elem = npts * (9 * 8 + 3 * 8 + 9 * 8)  # fields + coords + metric

    def exchange_us(gpus: int, elements: int) -> float:
        per_gpu = elements / gpus
        surface = per_gpu ** (2 / 3) * 6
        face_bytes = surface * npts / (FIG10_DEGREE + 1) * 9 * 4
        return 5 * LONGHORN_GPU.exchange_cost(26, face_bytes) / per_gpu * 1e6

    gpus0, elements0, mesh0, _, wave0, _, _ = FIG10_PAPER[0]
    kernel_us = wave0 - exchange_us(gpus0, elements0)
    rows = []
    for gpus, elements, mesh_p, transf_p, wave_p, eff_p, _ in FIG10_PAPER:
        us = kernel_us + exchange_us(gpus, elements)
        t_mesh = mesh0 + 0.5 * (math.log2(gpus) - math.log2(gpus0))
        t_transfer = elements / gpus * bytes_per_elem / PCIE_BYTES_PER_SECOND + 8.0
        rows.append([gpus, elements, round(t_mesh, 2), round(t_transfer, 1), round(us, 2),
                     round(wave0 / us, 3), round(FIG10_FLOPS_PER_ELEM * gpus / us / 1e6, 2),
                     mesh_p, transf_p, wave_p, eff_p])
    return rows


def fig10(lab: Lab) -> Block:
    rows = fig10_model()
    cpu_us = lab["apps.dgea.us_per_elem_step"]
    # Tensor dG volume work per element grows like (N+1)^4.
    cpu_us_n7 = cpu_us * ((FIG10_DEGREE + 1) / (WAVE_PROP_DEGREE + 1)) ** 4
    wave = [r[4] for r in rows]
    return Block(
        f"Lab kernel (wave_prop, one CPU core): {cpu_us:.1f} us/step/elem at degree "
        f"{WAVE_PROP_DEGREE}; scaled by (N+1)^4 to degree {FIG10_DEGREE}, ~{cpu_us_n7:.0f} us:\n"
        f"{cpu_us_n7 / FIG10_PAPER[0][4]:.0f}x the paper's per-GPU rate (the paper measured "
        f"~50x between its GPU and one of its CPU cores).",
        "Hybrid CPU-GPU weak scaling, modeled (kernel and meshing pinned to the paper's "
        "8-GPU row):\n" + format_table(
            ["GPUs", "elements", "mesh s", "transf s", "us/step/elem", "par eff", "Tflops",
             "paper mesh", "paper transf", "paper us", "paper eff"],
            rows,
        ),
        "model: per-element time flat within 5 %, mesh + transfer < 5 % of 1e4 steps",
        max(wave) / min(wave) < 1.05
        and all(r[2] + r[3] < 0.05 * 1e4 * r[4] * 1e-6 * r[1] / r[0] for r in rows),
    )


# --- EXPERIMENTS.md -----------------------------------------------------------------------

FIGURES = (fig4, fig5, fig7, amr_savings, fig9, fig10)


def blocks(metrics: Lab, source: str) -> Dict[str, str]:
    """Block name -> generated text, ``source`` naming the file the lab rows came from."""
    out = {"source": f"Lab rows: `{source}`, the traced run of each metric's owner workload; "
                     "regenerate with `python3 -m benchmarks.figures`."}
    for figure in FIGURES:
        out[figure.__name__] = f"```text\n{figure(metrics).text()}\n```"
    return out


# --- docs/PERFORMANCE.md: what each committed BENCH file says -----------------------------

END_TO_END = {m.name: m for m in registry.END_TO_END}
CALIBRATED = [w for w in registry.workload_names() if workloads.get(w).calibrate]
RERUNS = ("rerun", "first_round")  # further `compare` tables a BENCH file may keep
VERDICT = re.compile(r"\s(ok|worse|unresolved)(\s|$)")


class MissingBench(LookupError):
    """A ``figures:bench<n>`` block names a BENCH file the repository does not hold."""


def untraced(side: Mapping, workload: str, metric: str) -> Dict[int, float]:
    """``{seed: value}`` of ``metric`` over one side's untraced runs of ``workload``."""
    return {r["seed"]: r["metrics"][metric] for r in side["runs"]
            if not r["traced"] and r["workload"] == workload}


def claim_line(bench: Mapping, name: str) -> str:
    """Medians, ratio, seed pairs won and the median gap over the parent's quartile distance."""
    w, m = bench["claim"]["workload"], END_TO_END[bench["claim"]["metric"]]
    a, b = (untraced(bench[side], w, m.name) for side in ("parent", "change"))
    a1, a2, a3 = stats.quartiles(list(a.values()))
    b2 = stats.median(list(b.values()))
    sign = 1.0 if m.better == "lower" else -1.0
    seeds = sorted(a.keys() & b.keys())
    won = sum(sign * b[s] < sign * a[s] for s in seeds)
    return (f"**Claim** (`{name}`): `{w}` `{m.name}` {a2:.5g} → {b2:.5g} {m.unit}, "
            f"{b2 / a2:.4f} of the parent; the change is better in {won} of {len(seeds)} "
            f"pairs by seed, and the median gap is {abs(a2 - b2) / (a3 - a1):.2f}× the "
            f"parent's quartile distance.")


def compare_rows(lines: Sequence[str], claimed: Optional[str], where: str) -> str:
    """The claimed workload's rows and every row not ``ok``, verbatim; the rest counted."""
    rows = lines[1:]
    keep = [r for r in rows if r.split()[0] == claimed or VERDICT.search(r).group(1) != "ok"]
    table = "\n".join([lines[0], *keep])
    rest = f"{len(rows) - len(keep)} other rows `ok`; full table in {where}."
    return f"```text\n{table}\n```\n\n{rest}"


def bench_block(bench: Mapping, name: str) -> str:
    """One BENCH file's claim line and stored ``compare`` rows, from that file alone."""
    claimed = (bench["claim"] or {}).get("workload")
    parts = [claim_line(bench, name)] if claimed else []
    tables = {"compare": bench.get("compare")}
    tables.update((k, bench[k]["compare"]) for k in RERUNS if k in bench)
    for key, lines in tables.items():
        if lines:
            parts.append(compare_rows(lines, claimed, f"`{name}` (`{key}`)"))
    return "\n\n".join(parts)


def trend(benches: Mapping[str, Mapping]) -> str:
    """Per end-to-end metric: every BENCH file's change-side medians, one column a workload."""
    names = registry.workload_names()
    tables = []
    for m in registry.END_TO_END:
        head = [f"`{m.name}` ({m.unit})", "`host.speed_factor`", *names]
        rows = [head, ["---"] * len(head)]
        for name, bench in benches.items():
            change = bench["change"]
            speed = [r["raw"]["speed_factor"] for r in change["runs"]
                     if not r["traced"] and r["workload"] in CALIBRATED]
            cells = [f"{stats.median(list(v.values())):.4g}" if v else "—"
                     for v in (untraced(change, w, m.name) for w in names)]
            rows.append([f"`{name}`", f"{stats.median(speed):.3g}", *cells])
        tables.append("\n".join(f"| {' | '.join(r)} |" for r in rows))
    return "\n\n".join(tables)


def bench_blocks(doc: str) -> Dict[str, str]:
    """A block for each ``figures:bench<n>`` marker in ``doc``; the trend of every BENCH file."""
    out = {}
    for n in re.findall(r"<!-- figures:bench(\d+) -->", doc):
        path = ROOT / f"BENCH_{n}.json"
        if not path.exists():
            raise MissingBench(f"{path.name}: named by a figures:bench{n} block, not committed")
        out[f"bench{n}"] = bench_block(json.loads(path.read_text()), path.name)
    out["trend"] = trend({p.name: json.loads(p.read_text()) for p in committed_benches()})
    return out


# --- the documents ------------------------------------------------------------------------


def render(doc: str, generated: Mapping[str, str], where: str = "the document") -> str:
    """``doc`` with the body of every ``<!-- figures:NAME -->`` block replaced."""
    for name, body in generated.items():
        pattern = re.compile(
            rf"(<!-- figures:{name} -->\n).*?(<!-- /figures:{name} -->)", re.DOTALL)
        doc, n = pattern.subn(lambda m: f"{m.group(1)}{body}\n{m.group(2)}", doc)
        if n != 1:
            raise ValueError(f"{where} must hold exactly one figures:{name} block, has {n}")
    return doc


def committed_benches() -> List[Path]:
    """The ``BENCH_<n>.json`` files of the repository root, by ``n``."""
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def main(argv: Optional[List[str]] = None, documents: Sequence[Path] = DOCUMENTS) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.figures")
    parser.add_argument("input", nargs="?", type=Path,
                        help="suite --out file or BENCH_<n>.json for EXPERIMENTS.md's lab rows "
                             "(default: the newest BENCH)")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if a document differs")
    args = parser.parse_args(argv)
    path = args.input or committed_benches()[-1]
    stale = False
    for doc in documents:
        old = doc.read_text()
        try:
            generated = (blocks(load_lab(path), path.name) if doc.name == EXPERIMENTS.name
                         else bench_blocks(old))
        except MissingMetric as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        except MissingBench as exc:
            print(f"{doc}: {exc}", file=sys.stderr)
            return 2
        new = render(old, generated, doc.name)
        if args.check:
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(True), new.splitlines(True), "committed", "generated"))
            print(f"{doc.name}: " + ("ok" if new == old else "stale; rerun without --check"))
            stale |= new != old
        else:
            doc.write_text(new)
            print("\n\n".join(f"===== {name} =====\n{body}" for name, body in generated.items()))
    return int(stale)


if __name__ == "__main__":
    sys.exit(main())
