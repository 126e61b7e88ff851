"""Compare two sets of untraced runs with the per-metric bounds of the registry."""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from . import registry
from .stats import quartiles, spread


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` plus ``fail_frac`` per run."""
    with open(path) as f:
        doc = json.load(f)
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in doc["runs"]:
        if run["traced"]:
            continue
        row = out.setdefault(run["workload"], {})
        for k, v in run["metrics"].items():
            row.setdefault(k, []).append(v)
        row.setdefault("fail_frac", []).append(run["failed"] / run["attempted"])
    return out


def verdict(metric: registry.EndToEnd, a: Sequence[float], b: Sequence[float]) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for base runs ``a`` and new runs ``b``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    if sign * (med_b - med_a) > metric.bound * med_a:
        return "worse"
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread(a), spread(b)) > metric.bound and not all_better:
        return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str) -> Tuple[List[str], bool]:
    """Report lines, and whether anything is ``worse`` or ``fail_frac`` rose."""
    a, b = load(path_a), load(path_b)
    lines = [f"{'workload':14s} {'metric':12s} {'base med [q1, q3]':>34s} "
             f"{'new med [q1, q3]':>34s} {'new/base':>9s} {'bound':>6s}  verdict"]
    bad = False
    for name in registry.workload_names():
        if name not in a or name not in b:
            continue
        for m in registry.END_TO_END:
            va, vb = a[name][m.name], b[name][m.name]
            (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
            v = verdict(m, va, vb)
            bad |= v == "worse"
            lines.append(
                f"{name:14s} {m.name:12s} {a2:12.5g} [{a1:9.5g},{a3:9.5g}] "
                f"{b2:12.5g} [{b1:9.5g},{b3:9.5g}] {b2 / a2:9.4f} {m.bound:6.2f}  {v}"
                f"  (n={len(va)}/{len(vb)} {m.unit})")
        fa, fb = max(a[name]["fail_frac"]), max(b[name]["fail_frac"])
        rose = fb > fa
        bad |= rose
        lines.append(f"{name:14s} {'fail_frac':12s} {fa:12.5g} {'':21s} {fb:12.5g} "
                     f"{'':21s} {'':9s} {0:6.2f}  {'worse' if rose else 'ok'}")
    return lines, bad
