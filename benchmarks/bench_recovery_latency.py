"""Time-to-recover from a dead rank: warm replacement vs shrink vs retry.

A process-backend run loses one worker to a hard SIGKILL mid-run (the
``die`` fault kind) and recovers under each of the machine's three
policies:

* **replacement** — ``max_replacements>0``: the dead rank is respawned
  in place while survivors roll back to the last checkpoint (no
  teardown);
* **retry** — the classic path: the attempt is torn down and all P
  workers are relaunched at the same size from the checkpoint;
* **shrink** — teardown plus relaunch at P-1 ranks (the checkpoint is
  repartitioned onto the survivors).

Per-step work models the AMR setting: a fixed *global* domain evenly
partitioned across the live ranks (simulated with sleeps, so even a
single-core CI host behaves like a parallel machine).  Replacement and
retry redo the work-since-checkpoint at full size, so their difference
isolates the machine overhead — one respawned process versus a
teardown-and-relaunch of the world; shrink additionally concentrates
the same global work on P-1 workers, which is its structural price on
top of the relaunch.  Swept over the checkpoint interval into
``bench_results/recovery_latency.txt``.

Honesty note: wall times are from a single small host; the structural
claims (replacement respawns 1 process where retry/shrink respawn a
world; shrink serves the domain with one worker fewer) are what scale,
and the per-policy recovery accounting from the
:class:`~repro.parallel.run.RecoveryReport` is printed alongside.
"""

import time
from pathlib import Path

from repro.parallel import (
    FaultPlan,
    Faults,
    FaultyComm,
    Machine,
    MemoryCheckpointStore,
    RunConfig,
)

RESULT = Path(__file__).resolve().parents[1] / "bench_results" / "recovery_latency.txt"
P = 4
NSTEPS = 12
DIE_AT_STEP = 9  # past most checkpoints, so work-since-checkpoint is real
INTERVALS = [1, 3, 6]
TRIALS = 3
#: Global work per step, perfectly parallelized: each rank sleeps its
#: 1/size share, so shrinking the machine makes every step slower.
STEP_GLOBAL_SECONDS = 0.02


class DieOnce:
    """Kill rank 1 at its ``DIE_AT_STEP``-th collective on attempt 0."""

    def __call__(self, comm, attempt):
        if attempt == 0:
            # spmdlint: ignore[SPMD006] -- Faults(wrapper=) idiom: this callable IS the fault layer, invoked per attempt by the machine.
            return FaultyComm(comm, FaultPlan.die(1, DIE_AT_STEP))
        return comm


def program(comm, store, interval):
    """Checkpointed step loop: this rank's share of the global work + allreduce."""
    ck = store.load()
    step = ck["step"] if ck else 0
    acc = ck["acc"] if ck else 0
    while step < NSTEPS:
        time.sleep(STEP_GLOBAL_SECONDS / comm.size)
        acc += comm.allreduce(step * 31 + comm.rank)
        step += 1
        if step % interval == 0 and comm.rank == 0:
            store.save({"step": step, "acc": acc})
    return acc


def _run(policy, interval):
    kwargs = dict(
        size=P,
        backend="process",
        start_method="fork",
        recover=True,
        max_retries=2,
        timeout=60.0,
    )
    if policy == "replacement":
        kwargs["max_replacements"] = 1
    elif policy == "shrink":
        kwargs["shrink_on_failure"] = True
        kwargs["min_size"] = P - 1
    layers = [] if policy == "fault-free" else [Faults(wrapper=DieOnce())]
    machine = Machine(RunConfig(layers=layers, **kwargs))
    t0 = time.perf_counter()
    res = machine.run(program, interval, store=MemoryCheckpointStore())
    wall = time.perf_counter() - t0
    return wall, res


def main():
    lines = [
        f"Recovery latency: warm replacement vs shrink vs full retry "
        f"(P={P}, {NSTEPS} steps, SIGKILL rank 1 at collective {DIE_AT_STEP}, "
        f"median of {TRIALS} trials)",
        "",
        f"{'ckpt every':>10}  {'policy':>12}  {'total wall':>10}  "
        f"{'t_recover':>10}  {'respawned':>9}  recovery",
    ]
    verdicts = []
    for interval in INTERVALS:
        base_wall = sorted(_run("fault-free", interval)[0] for _ in range(TRIALS))[
            TRIALS // 2
        ]
        lines.append(
            f"{interval:>10}  {'fault-free':>12}  {base_wall:>9.3f}s  "
            f"{'-':>10}  {'-':>9}  (baseline)"
        )
        recover_at = {}
        for policy in ["replacement", "retry", "shrink"]:
            runs = sorted(
                (_run(policy, interval) for _ in range(TRIALS)),
                key=lambda t: t[0],
            )
            wall, res = runs[TRIALS // 2]
            rec = res.recovery
            # All policies redo the same work-since-checkpoint, so the
            # excess over the fault-free baseline is the comparable
            # time-to-recover (redone work + machine overhead).
            t_rec = wall - base_wall
            if policy == "replacement":
                assert rec.replacements == 1 and rec.recoveries == 0
                respawned = 1
            else:
                assert rec.recoveries == 1 and rec.replacements == 0
                respawned = rec.final_size
            recover_at[policy] = max(t_rec, 1e-9)
            lines.append(
                f"{interval:>10}  {policy:>12}  {wall:>9.3f}s  {t_rec:>9.3f}s  "
                f"{respawned:>9}  {rec.summary().split(', checkpoints')[0]}"
            )
        faster = all(
            recover_at["replacement"] < recover_at[p] for p in ("retry", "shrink")
        )
        verdicts.append(faster)
        lines.append(
            f"{'':>10}  -> replacement "
            f"{'beats' if faster else 'DOES NOT BEAT'} teardown policies "
            f"({recover_at['retry'] / recover_at['replacement']:.1f}x vs retry, "
            f"{recover_at['shrink'] / recover_at['replacement']:.1f}x vs shrink)"
        )
        lines.append("")
    lines.append(
        "replacement strictly fastest at every checkpoint interval: "
        f"{'yes' if all(verdicts) else 'NO'}"
    )
    text = "\n".join(lines)
    RESULT.write_text(text + "\n")
    print(f"\n===== recovery_latency =====\n{text}\n", flush=True)
    assert all(verdicts), "warm replacement was not strictly fastest"


if __name__ == "__main__":
    main()
