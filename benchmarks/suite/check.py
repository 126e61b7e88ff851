"""Validate ``BENCHMARK.json`` against the registry and the driver's limits."""

from __future__ import annotations

import json
import re
from typing import List

from . import registry
from .runner import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = ROOT / "BENCHMARK.json"


def problems() -> List[str]:
    """Everything wrong with the registry or the file (empty list: all good)."""
    want = registry.benchmark_json()
    out: List[str] = []
    names = ([w.name for w in registry.WORKLOADS] + [m.name for m in registry.END_TO_END]
             + [m.name for m in registry.PER_LAYER])
    out += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    out += [f"name used twice: {n}" for n in sorted(set(names)) if names.count(n) > 1]
    for m in registry.END_TO_END + registry.PER_LAYER:
        if not UNIT.match(m.unit):
            out.append(f"{m.name}: bad unit {m.unit!r}")
        if m.better not in ("lower", "higher"):
            out.append(f"{m.name}: better must be lower or higher")
    for w in registry.WORKLOADS:
        if not 0 < len(w.why) <= 200 or "\n" in w.why:
            out.append(f"{w.name}: why must be one line of at most 200 characters")
    for m in registry.END_TO_END:
        if not 0 < m.bound <= 0.25:
            out.append(f"{m.name}: bound {m.bound} outside (0, 0.25]")
    if "setup_s" not in [m.name for m in registry.END_TO_END]:
        out.append("no setup_s end-to-end metric")
    workloads = registry.workload_names()
    e2e = [m.name for m in registry.END_TO_END]
    for m in registry.PER_LAYER:
        if m.layer not in registry.LAYERS:
            out.append(f"{m.name}: unknown layer {m.layer}")
        if m.owner is not None and m.owner not in workloads:
            out.append(f"{m.name}: unknown owner {m.owner}")
        if m.moves not in e2e:
            out.append(f"{m.name}: moves unknown end-to-end metric {m.moves}")
    if not 2 <= len(registry.WORKLOADS) <= 8:
        out.append("need 2 to 8 workloads")
    if not 1 <= len(registry.END_TO_END) <= 16:
        out.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(registry.PER_LAYER) <= 128:
        out.append(f"need 1 to 128 per-layer metrics, have {len(registry.PER_LAYER)}")
    if not 1 <= registry.RUN_SECONDS <= 60:
        out.append("run_seconds outside 1..60")
    if len(json.dumps(want)) > 64 * 1024:
        out.append("BENCHMARK.json would exceed 64 KiB")
    try:
        have = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as exc:
        return out + [f"cannot read {BENCHMARK}: {exc}"]
    if have != want:
        keys = [k for k in want if have.get(k) != want[k]] + [k for k in have if k not in want]
        out.append(f"BENCHMARK.json differs from the registry in {keys}; run check --write")
    return out


def write() -> None:
    BENCHMARK.write_text(json.dumps(registry.benchmark_json(), indent=2) + "\n")
