"""Starts one fresh, isolated child process per run and gathers what they report."""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import registry
from .stats import median

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_tmp"  # every file a run writes lives here (git-ignored)
CHILD_TIMEOUT_S = 170
SETUPS = 3  # set-ups timed per untraced run; setup_s is their median


class ChildFailed(RuntimeError):
    """A child exited non-zero or printed no result."""


def host() -> Dict[str, Any]:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if "model name" in ln), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child with its own kernel cache, flight-recorder and temp dirs."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        env = dict(os.environ)
        for sub in ("kernels", "flightrec", "tmp"):
            os.mkdir(os.path.join(tmp, sub))
        env.update({
            "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}",
            "REPRO_KERNEL_CACHE": os.path.join(tmp, "kernels"),
            "REPRO_FLIGHTREC_DIR": os.path.join(tmp, "flightrec"),
            "TMPDIR": os.path.join(tmp, "tmp"),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        })
        spec = dict(spec, spawned_at=time.time())
        # Its own session, so a timeout can kill the rank processes it forked too.
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite", "child", json.dumps(spec)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{spec['name']} child ran past {CHILD_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{spec['name']} child exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def _spec(name: str, seed: int, seconds: float, traced: bool, quick: bool,
          setup_only: bool = False, spans_out: str = "") -> Dict[str, Any]:
    return {"name": name, "seed": seed, "seconds": seconds, "traced": traced,
            "quick": quick, "setup_only": setup_only, "spans_out": spans_out}


def run_untraced(name: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """One end-to-end run: tracing off, set-up timed ``SETUPS`` times."""
    setups = [
        spawn(_spec(name, seed, seconds, False, quick, setup_only=True))["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    out = spawn(_spec(name, seed, seconds, False, quick))
    out["end_to_end"]["setup_s"] = median(setups + [out["end_to_end"]["setup_s"]])
    out["metrics"] = out.pop("end_to_end")
    return out


def run_traced(name: str, seed: int, seconds: float, quick: bool,
               spans_out: str = "") -> Dict[str, Any]:
    """One per-layer run: the workload untraced, then traced, then the rest at toy size.

    The untraced twin gives ``trace.overhead_share``.  The other
    workloads run traced at toy size only so that every per-layer metric
    has a measured value in every traced run (the driver's contract);
    a metric is meant to be read on the workload that owns it.
    """
    base = spawn(_spec(name, seed, seconds, False, quick))
    out = spawn(_spec(name, seed, seconds, True, quick, spans_out=spans_out))
    mine = out.pop("per_layer")
    mine["trace.overhead_share"] = (
        out["end_to_end"]["wall_s"] / base["end_to_end"]["wall_s"] - 1.0)
    toys = {
        other: spawn(_spec(other, seed, seconds, True, True))
        for other in registry.workload_names() if other != name
    }
    out["metrics"] = {
        m.name: (mine if m.owner in (None, name) else toys[m.owner]["per_layer"])[m.name]
        for m in registry.PER_LAYER
    }
    toy_failed = sum(t["failed"] for t in toys.values())
    out["failed"] += toy_failed
    out["correct"] = out["correct"] and base["correct"] and toy_failed == 0
    out["traced_end_to_end"] = out.pop("end_to_end")
    out["untraced_twin"] = base["end_to_end"]
    return out


def units(traced: bool) -> Dict[str, str]:
    metrics = registry.PER_LAYER if traced else registry.END_TO_END
    return {m.name: m.unit for m in metrics}


def result_line(run: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    unit = units(run["traced"])
    return json.dumps({
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in run["metrics"].items()},
    })


def print_run(run: Dict[str, Any]) -> None:
    unit = units(run["traced"])
    counts = ", ".join(f"{k} n={n}" for k, n in run["samples"].items())
    status = "ok" if run["correct"] else "INCORRECT"
    print(f"== {run['workload']} seed={run['seed']} "
          f"{'traced' if run['traced'] else 'untraced'}: {status}, "
          f"failed {run['failed']}/{run['attempted']} ops ({counts})")
    owners = {m.name: m.owner for m in registry.PER_LAYER}
    for k, v in run["metrics"].items():
        toy = run["traced"] and owners[k] not in (None, run["workload"])
        note = f" (toy size: read on {owners[k]})" if toy else ""
        print(f"  {k:34s} {v:16.6g} {unit[k]:8s}{note}")
    if not run["traced"]:
        rate = run["work"] / run["metrics"]["wall_s"]
        print(f"  {'(work rate: ' + str(run['work']) + ' ops / wall_s)':34s} {rate:16.6g} ops/s")


def run_set(names: List[str], seeds: List[int], seconds: float, traced: bool,
            quick: bool, out: Optional[str]) -> List[Dict[str, Any]]:
    """Run every (workload, seed); print each; optionally write the set to ``out``."""
    shm_before = set(os.listdir("/dev/shm"))
    runs = []
    try:
        for seed in seeds:
            for name in names:
                spans_out = f"{out}.{name}.spans.json" if (out and traced) else ""
                run = (run_traced(name, seed, seconds, quick, spans_out) if traced
                       else run_untraced(name, seed, seconds, quick))
                print_run(run)
                if len(names) > 1:
                    print(result_line(run))
                runs.append(run)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    if leaked:
        print(f"warning: /dev/shm gained {len(leaked)} entries: {leaked[:5]}", file=sys.stderr)
    if out:
        with open(out, "w") as f:
            json.dump({"host": host(), "claim": None, "seconds": seconds, "quick": quick,
                       "shm_leaked": leaked, "runs": runs}, f, indent=1)
    return runs
