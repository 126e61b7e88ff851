"""Bit-exactness pins for the bind path: mesh geometry and mortar batches.

``golden_bind.json`` was captured on the per-element ``build_mesh`` loop
and the per-pair ``DGSpace._build`` (the commit before the flat face-pair
enumeration landed).  Every rank hashes its four ``Mesh`` arrays and every
``MortarBatch`` *in order* — batch order is the kernel's accumulation
order, so it is part of the contract, not an implementation detail.  The
forests put hanging faces across rotated tree links (shell, rotcubes), on
a single tree (unit square) and across periodic gluings (brick), with
ghosts at P in {3, 5}.

Regenerate (only when an *intentional* change of batch order or geometry
numerics lands) with::

    PYTHONPATH=src:. python tests/mangll/test_bind_pins.py --regen
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mangll.dgops import DGSpace
from repro.mangll.geometry import BrickGeometry, MultilinearGeometry, ShellGeometry
from repro.mangll.mesh import build_mesh
from repro.p4est.balance import balance
from repro.p4est.builders import brick_2d, rotcubes, shell, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from tests.parallel.helpers import run as spmd

GOLDEN_PATH = Path(__file__).parent / "golden_bind.json"

# name -> (connectivity, geometry(conn), degree, base level, refinement depth)
SCENARIOS = {
    "shell": (shell, lambda c: ShellGeometry(0.55, 1.0), 2, 1, 2),
    "rotcubes": (rotcubes, MultilinearGeometry, 3, 1, 2),
    "square": (unit_square, MultilinearGeometry, 5, 2, 3),
    "brick": (
        lambda: brick_2d(3, 2, periodic_x=True, periodic_y=True),
        lambda c: BrickGeometry(3, 2),
        2,
        1,
        2,
    ),
}
SIZES = (1, 3, 5)


def _hash(*arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        m.update(str(a.dtype).encode())
        m.update(str(a.shape).encode())
        m.update(a.tobytes())
    return m.hexdigest()[:16]


def _scatter(octs):
    """Deterministic scattered refinement: about one octant in four, chosen
    by lattice position so that refined and unrefined cells face each
    other across tree faces in every orientation."""
    s = (octs.D.maxlevel - octs.level).astype(np.int64)
    h = octs.tree * 7 + (octs.x >> s) * 3 + (octs.y >> s) * 5 + (octs.z >> s)
    return h % 4 == 0


def _bind(comm, name):
    builder, geo, degree, level, depth = SCENARIOS[name]
    conn = builder()
    forest = Forest.new(conn, comm, level=level)
    for _ in range(depth - 1):
        forest.refine(mask=_scatter(forest.local))
    balance(forest)
    forest.partition()
    ghost = build_ghost(forest)
    mesh = build_mesh(forest, geo(conn), degree, ghost)
    return mesh, DGSpace(forest, ghost, mesh, degree)


def _pin(comm, name) -> dict:
    mesh, space = _bind(comm, name)
    m = hashlib.sha256()
    for b in space.batches:
        m.update(repr((b.kind, b.fminus, b.fplus)).encode())
        m.update(_hash(b.eminus, b.eplus).encode())
        m.update(b"-" if b.transfer is None else _hash(b.transfer).encode())
    return {
        "nlocal": int(mesh.nelem_local),
        "nghost": int(mesh.nelem_ghost),
        "nbatches": len(space.batches),
        "kinds": sorted({int(b.kind) for b in space.batches}),
        "batches": m.hexdigest()[:16],
        "coords": _hash(mesh.coords),
        "jinv": _hash(mesh.jinv),
        "detj": _hash(mesh.detj),
        "weights": _hash(mesh.weights),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("P", SIZES)
def test_bind_matches_pins(goldens, name, P):
    got = spmd(P, _pin, name)
    want = goldens[f"{name}/P{P}"]
    assert len(got) == len(want) == P
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}/P{P} rank {rank} diverged from the pinned bind"


def test_pins_cover_every_mortar_kind_and_ghosts(goldens):
    """The pins are only worth something if the scenarios reach hanging
    faces in both directions, boundaries and ghost partners."""
    for name in SCENARIOS:
        ranks = goldens[f"{name}/P3"]
        kinds = set().union(*(r["kinds"] for r in ranks))
        want = {0, 1, 2} if name == "brick" else {0, 1, 2, 3}
        assert kinds == want, name
        assert all(r["nghost"] > 0 for r in ranks), name


def _regen() -> None:
    out = {f"{n}/P{P}": spmd(P, _pin, n) for n in sorted(SCENARIOS) for P in SIZES}
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(out)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
