"""Tests of the benchmark suite itself (not in tier-1 ``testpaths``).

Run with ``PYTHONPATH=src:. python -m pytest -q benchmarks/suite/test_suite.py``.
"""

import json
import os
import queue
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from benchmarks.suite import check, child, compare, openloop, registry, runner, spans, stats


# --- span recorder ----------------------------------------------------------


def test_self_time_is_duration_minus_children():
    rec = spans.Recorder()
    rec.add("op", "apps", 0.0, 10.0)
    rec.add("balance", "p4est", 1.0, 4.0)
    rec.add("inner", "p4est", 2.0, 3.0)
    rec.add("bind", "mangll", 5.0, 9.0)
    rec.add("after", "io", 11.0, 12.0, probe=True)
    rec.finalize()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["op"].self_s == pytest.approx(3.0)  # 10 - 3 - 4
    assert by_name["balance"].self_s == pytest.approx(2.0)
    assert by_name["inner"].self_s == pytest.approx(1.0)
    assert rec.spans[by_name["inner"].parent].name == "balance"
    assert rec.spans[by_name["bind"].parent].name == "op"
    assert by_name["after"].parent == -1
    # Probe spans are not part of the timed region.
    assert rec.layer_seconds() == pytest.approx({"apps": 3.0, "p4est": 3.0, "mangll": 4.0})


def test_spans_nest_per_track_and_in_any_insertion_order():
    rec = spans.Recorder()
    rec.add("child", "p4est", 1.0, 2.0)  # imported before its parent was closed
    rec.add("other_rank", "parallel", 0.5, 2.5, track=1)
    rec.add("parent", "apps", 0.0, 3.0)
    rec.finalize()
    parent = {s.name: s.parent for s in rec.spans}
    assert rec.spans[parent["child"]].name == "parent"
    assert parent["other_rank"] == -1  # another track never nests under this one
    assert sum(s.self_s for s in rec.spans if s.track == 0) == pytest.approx(3.0)


def test_live_spans_and_null_recorder():
    rec = spans.Recorder()
    with rec.span("outer", "apps"):
        with rec.span("inner", "p4est"):
            time.sleep(0.002)
    rec.finalize()
    outer, inner = sorted(rec.spans, key=lambda s: -s.duration)
    assert inner.duration >= 0.002 and outer.self_s == pytest.approx(
        outer.duration - inner.duration)
    with spans.NULL.span("x", "y"):
        pass
    assert not spans.NULL.enabled


# --- statistics and compare -------------------------------------------------


def test_percentile_refuses_thin_tails():
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile(list(range(500)), 99)
    assert stats.median([3, 1, 2]) == 2


WALL = next(m for m in registry.END_TO_END if m.name == "wall_s")


def test_verdicts_follow_the_bound():
    b = WALL.bound
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(WALL, base, [v * (1 + 0.5 * b) for v in base]) == "ok"
    assert compare.verdict(WALL, base, [v * (1 + 1.5 * b) for v in base]) == "worse"
    noisy = [10 * (1 + k * b) for k in (-1.0, 1.0, -0.5, 0.5, 0.0)]  # IQR/median > bound
    assert compare.verdict(WALL, noisy, base) == "unresolved"
    assert compare.verdict(WALL, noisy, [v / 3 for v in base]) == "ok"  # every run better


def _set(path, wall, failed=0):
    runs = [
        {"workload": "forest_weak", "traced": False, "attempted": 10, "failed": failed,
         "metrics": {m.name: (w if m.name == "wall_s" else 1.0) for m in registry.END_TO_END}}
        for w in wall
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_fails_on_worse_and_on_a_rise_in_fail_frac(tmp_path):
    base = _set(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.0])
    lines, bad = compare.compare(base, _set(tmp_path / "b.json", [10.2, 10.1, 10.0, 10.3]))
    assert not bad and any("wall_s" in ln and ln.rstrip().endswith("s)") for ln in lines)
    assert compare.compare(base, _set(tmp_path / "c.json", [14.0, 14.1, 13.9, 14.0]))[1]
    assert compare.compare(base, _set(tmp_path / "d.json", [10.0, 10.0, 10.0, 10.0], 1))[1]


# --- open-loop generator ----------------------------------------------------


class StubService:
    """One worker with a known 5 ms service time."""

    SERVICE_S = 0.005

    def __init__(self):
        self.q = queue.Queue()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            handle = self.q.get()
            if handle is None:
                return
            time.sleep(self.SERVICE_S)
            handle["done"] = time.monotonic()

    def submit(self, i):
        handle = {"done": None}
        self.q.put(handle)
        return handle

    def step(self, rate, n, seed):
        rng = np.random.default_rng(seed)
        s = openloop.drive(rate, openloop.schedule(rate, n, rng), self.submit,
                           lambda h: h["done"] is not None)
        deadline = time.monotonic() + 30
        while any(h["done"] is None for h in s.handles):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        s.finish([h["done"] for h in s.handles])
        return s

    def close(self):
        self.q.put(None)
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def test_open_loop_reports_the_stub_service_time_and_its_capacity():
    stub = StubService()
    try:
        slow, mid, over = stub.step(40, 100, 1), stub.step(100, 150, 2), stub.step(400, 300, 3)
    finally:
        stub.close()
    # At 40 req/s the 5 ms server is mostly idle: latency is its service time.
    assert 0.005 <= slow.p50 <= 0.008
    assert slow.p50 <= slow.p90 <= 0.030
    assert slow.ok and mid.ok
    # 400 req/s is twice the capacity: the queue grows, measured from due time.
    assert not over.ok and over.p90 > 0.2 and over.backlog_end > 3
    assert openloop.max_rate_ok([over, slow, mid]) == 100
    # The generator kept to its schedule, and says how late it ran.
    assert float(np.percentile(slow.late, 90)) < 0.005
    assert (slow.late >= 0).all()


def test_schedule_is_seeded():
    a = openloop.schedule(80, 50, np.random.default_rng(7))
    b = openloop.schedule(80, 50, np.random.default_rng(7))
    c = openloop.schedule(80, 50, np.random.default_rng(8))
    assert (a == b).all() and (a != c).any() and (np.diff(a) > 0).all()


# --- workloads: seed determinism, the --quick path, the registry ------------


def _quick(name, seed):
    return child.run(name, seed, 1.0, traced=False, quick=True, setup_only=False,
                     spawned_at=time.time())


@pytest.mark.parametrize("name", registry.workload_names())
def test_same_seed_same_inputs(name):
    a, b, c = _quick(name, 11), _quick(name, 11), _quick(name, 12)
    assert a["correct"] and b["correct"] and c["correct"]
    assert a["inputs"] == b["inputs"]  # schedule, mesh sizes, iteration counts
    if name != "stokes_picard":  # its plume is sized not to move the iteration counts
        assert a["inputs"] != c["inputs"]
    assert set(a["end_to_end"]) == {m.name for m in registry.END_TO_END}


def test_quick_run_of_every_workload_from_the_command_line():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--quick"],
        cwd=runner.ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(runner.ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 60
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(registry.WORKLOADS)
    for r in results:
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert set(r["metrics"]) == {m.name for m in registry.END_TO_END}
        assert all(v["value"] > 0 for v in r["metrics"].values())
    assert not (runner.ROOT / ".bench_tmp").exists()


def test_benchmark_json_matches_the_registry():
    assert check.problems() == []
    doc = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    owners = {m.owner for m in registry.PER_LAYER}
    assert owners == set(registry.workload_names()) | {None}
