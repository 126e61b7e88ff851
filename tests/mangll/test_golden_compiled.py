"""Bit-exactness pins for the compiled mangll kernels at P in {1, 3, 8}.

``golden_compiled.json`` was captured from the *interpreted* reference
on the seed scenarios below (and the capture asserts compiled ==
interpreted before writing, so the two pins coincide).  The tests
re-run the scenarios through the compiled :mod:`repro.mangll.op`
frontend and require every per-rank output hash — dG RHS, one LSRK
step, stable dt, integrated quantities, and a p-transfer — to match
exactly.  (The transfer has one implementation, so its hash pins the
reference itself.)  A compiler pass that changes a single
bit anywhere fails here before it can reach a benchmark.

Regenerate (only when an *intentional* numerics change lands) with::

    PYTHONPATH=src:. python tests/mangll/test_golden_compiled.py --regen
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mangll.geometry import MultilinearGeometry
from repro.mangll.mesh import build_mesh
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.mangll.transfer import transfer_nodal_fields
from repro.p4est.balance import balance
from repro.p4est.builders import unit_cube, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from tests.parallel.helpers import run as spmd

GOLDEN_PATH = Path(__file__).parent / "golden_compiled.json"


def _hash(*arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        m.update(str(a.dtype).encode())
        m.update(str(a.shape).encode())
        m.update(a.tobytes())
    return m.hexdigest()[:16]


def _build(comm, scenario):
    if scenario == "square_adv":
        conn, degree, level = unit_square(), 3, 2
        model = AdvectionModel(2, np.array([0.8, -0.5]), inflow=0.25)
    else:
        conn, degree, level = unit_cube(), 2, 1
        model = AdvectionModel(3, np.array([1.0, 0.4, -0.2]))
    forest = Forest.new(conn, comm, level=level)
    forest.refine(
        callback=lambda o: (o.x < o.D.root_len // 2) & (o.level < level + 2),
        recursive=True,
    )
    forest.partition()
    balance(forest)
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, MultilinearGeometry(conn), degree, ghost)
    ctx = MeshContext(forest, ghost, mesh, comm)
    nl = mesh.nelem_local
    x = mesh.coords[:nl]
    q = np.zeros((nl, mesh.npts, model.nfields))
    q[..., 0] = np.sin(3.0 * x[..., 0]) * np.cos(2.0 * x[..., 1])
    return forest, mesh, ctx, model, degree, q


def _run_scenario(comm, scenario, mode) -> dict:
    forest, mesh, ctx, model, degree, q = _build(comm, scenario)
    compile_flag = mode == "compiled"
    op = DGOperator(model, degree, compile=compile_flag).bind(ctx)
    r = op.rhs(q, 0.25)
    dt = op.stable_dt(q, cfl=0.3)
    q1 = lsrk45_step(q, 0.0, dt, op)
    mass = op.integrate_quantity(q1)
    coarse = Forest.new(forest.conn, comm, level=1)
    moved = transfer_nodal_fields(forest.local, q[..., 0], coarse.local, degree)
    return {
        "rhs": _hash(r),
        "step": _hash(q1),
        "dt": repr(dt),
        "mass": _hash(mass),
        "transfer": _hash(moved),
        "nlocal": int(mesh.nelem_local),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", ["square_adv", "cube"])
@pytest.mark.parametrize("P", [1, 3, 8])
def test_compiled_outputs_match_seed_goldens(goldens, scenario, P):
    got = spmd(P, _run_scenario, scenario, "compiled")
    want = goldens[f"{scenario}/P{P}"]
    assert len(got) == len(want) == P
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{scenario}/P{P} rank {rank} diverged from seed golden"


def _regen() -> None:
    out = {}
    for scenario in ("square_adv", "cube"):
        for P in (1, 3, 8):
            compiled = spmd(P, _run_scenario, scenario, "compiled")
            interp = spmd(P, _run_scenario, scenario, "interpreted")
            assert compiled == interp, (scenario, P)
            out[f"{scenario}/P{P}"] = compiled
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(out)} scenarios, compiled == interpreted)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
