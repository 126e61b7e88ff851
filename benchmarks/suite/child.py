"""One run of one workload, in the child process the runner starts for it."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict

from . import spans, workloads
from .calibrate import Calibrator
from .stats import median

# repro.trace phase name -> layer, for phases imported into the span tree.
PHASE_LAYER = {
    "AdaptOctree": "p4est", "Partition": "p4est", "Balance": "p4est", "Ghost": "p4est",
    "Nodes": "p4est", "Transfer": "mangll", "Compile": "mangll", "Apply": "mangll",
    "RK": "mangll", "Solve": "solvers", "VCycle": "solvers",
}
SHARE_LAYERS = ("parallel", "p4est", "mangll", "solvers", "apps", "service")


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run(name: str, seed: int, seconds: float, traced: bool, quick: bool,
        setup_only: bool, spawned_at: float, spans_out: str = "") -> Dict[str, Any]:
    from repro.trace import Tracer

    wl = workloads.get(name)(seed, quick)
    if wl.pin:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        cal = Calibrator(wl.calibrate)
        wl.setup()
        raw_setup_s = time.time() - spawned_at
        setup_s = raw_setup_s / cal.event(5)
        if setup_only:
            return {"setup_s": setup_s}
        rec = spans.Recorder() if traced else spans.NULL
        ops = workloads.Ops(rec, cal)
        tracer = Tracer(0, epoch=0.0)  # epoch 0: event times are perf_counter values
        calibrating, t0 = cal.spent_s, time.perf_counter()
        with tracer.activate() if traced else contextlib.nullcontext():
            wl.run(seconds, ops)
        elapsed = time.perf_counter() - t0 - (cal.spent_s - calibrating)
        failed = ops.failed + wl.verify(ops)
        speed = median(cal.factors) if cal.factors else 1.0
        out: Dict[str, Any] = {
            "workload": name, "seed": seed, "traced": traced, "quick": quick,
            "attempted": ops.attempted, "failed": failed, "correct": failed == 0,
            "work": wl.work(ops),
            "samples": {k: len(v) for k, v in ops.samples.items()},
            "inputs": wl.inputs(),
            # Times at reference speed (see calibrate.py); as measured under "raw".
            "end_to_end": {
                "setup_s": setup_s,
                "wall_s": wl.wall_s(ops),
                "op_p50_ms": 1e3 * median(ops.at_reference_speed(wl.primary)),
            },
            "raw": {
                "setup_s": raw_setup_s,
                "elapsed_s": elapsed,
                "op_p50_ms": 1e3 * median(ops.samples[wl.primary]),
                "speed_factor": speed,
            },
        }
        if traced:
            for ev in tracer.report().events:
                rec.add(ev.name, PHASE_LAYER.get(ev.name, "apps"), ev.start,
                        ev.start + ev.duration)
            layer = wl.layer_metrics(ops, rec)
            rec.finalize()
            busy = rec.layer_seconds()
            for name_ in SHARE_LAYERS:
                layer[f"share.{name_}"] = busy.get(name_, 0.0) / elapsed
            layer["unattributed_share"] = max(elapsed - sum(busy.values()), 0.0) / elapsed
            layer["host.speed_factor"] = speed
            out["per_layer"] = layer
            if spans_out:
                rec.write(spans_out)
    finally:
        wl.close()  # joins rank processes, so their peak is in RUSAGE_CHILDREN
    out["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    return out


def main(argv: list) -> int:
    spec = json.loads(argv[0])
    result = run(**spec)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0
