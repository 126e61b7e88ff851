"""Thread/process backend parity: same values, byte-exact metering.

The process backend must be a drop-in for the thread backend: identical
per-rank return values (bit-identical floats — the combines are the same
pure code on the same inputs) and identical :class:`CommStats` per rank
and per phase.  These tests run the seeded AMR stress program and a
short dynamically-adapted advection run under both backends and compare
everything the machine meters.

Process runs use ``fork`` so the shared programs may live here; spawn
coverage is in ``test_process_backend.py``.
"""

import numpy as np
import pytest

from repro.parallel import Machine, MemoryCheckpointStore, RunConfig, SpmdError, Trace
from tests.parallel.test_stress_invariants import run_phases

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def run_both(fn, *args, size=3, layers=()):
    """Run ``fn`` under both backends; return {backend: RunResult}."""
    results = {}
    for backend in ("thread", "process"):
        cfg = RunConfig(
            size=size,
            backend=backend,
            layers=list(layers),
            start_method="fork",
        )
        results[backend] = Machine(cfg).run(fn, *args)
    return results


def op_counters(stats):
    """The exactly-comparable part of a CommStats: per-op counter triples."""
    return {
        op: (s.calls, s.messages, s.bytes_sent) for op, s in sorted(stats.ops.items())
    }


def assert_reports_match(thread_report, process_report):
    """Per-rank values and metering must agree exactly."""
    assert thread_report.values == process_report.values
    for t_out, p_out in zip(thread_report.outcomes, process_report.outcomes):
        assert op_counters(t_out.stats) == op_counters(p_out.stats)
    assert op_counters(thread_report.merged_stats()) == op_counters(
        process_report.merged_stats()
    )


def test_stress_program_parity():
    results = run_both(run_phases, 3, size=3)
    assert_reports_match(results["thread"].report, results["process"].report)
    # The stress program's result is (global_count, checksum): identical
    # forests, not merely internally consistent ones.
    assert results["thread"].values[0] == results["process"].values[0]


@pytest.mark.parametrize("seed", [0, 7])
def test_stress_program_parity_across_sizes(seed):
    results = run_both(run_phases, seed, size=2)
    assert_reports_match(results["thread"].report, results["process"].report)


def test_numeric_collectives_bit_identical():
    def prog(comm):
        v = np.linspace(0.0, 1.0, 101) * (comm.rank + 1) * np.pi
        total = comm.allreduce(v)
        partial = comm.exscan(float(v.sum()))
        rows = comm.allgather(v[:3])
        return float(total.sum()), partial, [float(r.sum()) for r in rows]

    results = run_both(prog, size=4)
    # Equality (not allclose): both backends run the same combine code on
    # the same inputs in the same order.
    assert results["thread"].values == results["process"].values


def test_advection_step_parity_with_phase_attribution():
    from repro.apps.advection.driver import AdvectionConfig, AdvectionRun

    config = AdvectionConfig(
        degree=2, base_level=1, max_level=2, adapt_every=2, checkpoint_every=0
    )

    def advect(comm):
        run = AdvectionRun.from_store(comm, MemoryCheckpointStore(), config)
        run.run(3)
        return run.l2_error(), run.mass(), run.global_elements()

    results = run_both(advect, size=2, layers=[Trace()])
    assert_reports_match(results["thread"].report, results["process"].report)

    def phase_traffic(report):
        out = {}
        for trace in report.trace_reports:
            for path, phase in sorted(trace.phases.items()):
                out[(trace.rank, path)] = (
                    phase.calls,
                    phase.comm.total_messages,
                    phase.comm.total_bytes,
                )
        return out

    t_phases = phase_traffic(results["thread"].report)
    p_phases = phase_traffic(results["process"].report)
    assert t_phases == p_phases
    assert any("Integrate" in path for _, path in t_phases)


def test_shm_transport_changes_no_result():
    def prog(comm):
        arr = np.arange(8192, dtype=np.float64) + comm.rank
        rows = comm.allgather(arr)
        inbox = comm.exchange({(comm.rank + 1) % comm.size: arr * 2.0})
        ((src, received),) = inbox.items()
        return float(sum(r.sum() for r in rows)), src, float(received.sum())

    # Every ndarray rides the shared-memory arenas on the process
    # backend; the thread backend has no such path.
    results = run_both(prog, size=3)
    assert results["thread"].values == results["process"].values


def test_failure_parity():
    def prog(comm):
        comm.allreduce(1)
        if comm.rank == 2:
            raise ValueError("boom on 2")
        comm.barrier()
        return comm.rank

    failures = {}
    for backend in ("thread", "process"):
        cfg = RunConfig(size=4, backend=backend, start_method="fork", timeout=30.0)
        with pytest.raises(SpmdError) as ei:
            Machine(cfg).run(prog)
        failures[backend] = ei.value
    for err in failures.values():
        assert err.failed_rank == 2
        assert isinstance(err.__cause__, ValueError)
        assert "boom on 2" in str(err.__cause__)
