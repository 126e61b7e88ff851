"""Bit-exactness pins for the vectorized Balance/Ghost/Nodes kernels.

``golden_kernels.json`` was captured from the scalar (pre-flat-array)
implementations of the hot kernels.  These tests re-run the same two
scenarios at P in {1, 3, 8} on the session backend of
``tests.parallel.helpers`` (``REPRO_TEST_BACKEND``), and require every
output hash — forest checksum, ghost octants and mirror/ghost maps,
lnodes arrays and send/recv maps — and every per-op :class:`CommStats`
entry to match exactly.  Any vectorization change that alters results or wire traffic
(message counts or bytes) fails here before it can reach a benchmark.

Regenerate the goldens (only when an *intentional* output change lands)
by re-running the capture recipe documented in docs/PERFORMANCE.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.p4est.balance import balance
from repro.p4est.builders import rotcubes, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from tests.parallel.helpers import run as spmd

GOLDEN_PATH = Path(__file__).parent / "golden_kernels.json"


def _hash_arrays(*arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        m.update(str(a.dtype).encode())
        m.update(str(a.shape).encode())
        m.update(a.tobytes())
    return m.hexdigest()[:16]


def _hash_map(d) -> str:
    m = hashlib.sha256()
    for k in sorted(d):
        m.update(str(k).encode())
        m.update(np.ascontiguousarray(d[k]).tobytes())
    return m.hexdigest()[:16]


def _run_scenario(comm, conn_name: str) -> dict:
    if conn_name == "rotcubes":
        forest = Forest.new(rotcubes(), comm, level=1)

        def frac(o, lmax=3):
            cid = o.child_ids()
            return ((cid == 0) | (cid == 3) | (cid == 5) | (cid == 6)) & (
                o.level < lmax
            )

        forest.refine(callback=frac, recursive=True)
        deg = 2
    else:
        forest = Forest.new(unit_square(), comm, level=2)
        forest.refine(
            callback=lambda o: (o.x < o.D.root_len // 2) & (o.level < 4),
            recursive=True,
        )
        deg = 3
    forest.partition()
    rounds = balance(forest)
    cks = forest.checksum()
    ghost = build_ghost(forest)
    g_h = _hash_arrays(
        ghost.octants.tree,
        ghost.octants.x,
        ghost.octants.y,
        ghost.octants.z,
        ghost.octants.level,
        ghost.owners,
        ghost.mirrors,
    )
    gm_h = _hash_map(ghost.mirror_map) + "/" + _hash_map(ghost.ghost_map)
    ln = lnodes(forest, ghost, deg)
    he = ln.hanging_edge if ln.hanging_edge is not None else np.empty(0)
    ln_h = _hash_arrays(
        ln.element_nodes, ln.keys, ln.owner, ln.global_ids, ln.hanging_face, he
    )
    lnm_h = _hash_map(ln.send_map) + "/" + _hash_map(ln.recv_map)
    stats = {
        op: [s.calls, s.messages, s.bytes_sent]
        for op, s in sorted(comm.stats.ops.items())
    }
    return dict(
        rounds=rounds,
        checksum=cks,
        nglobal=forest.global_count,
        ghost=g_h,
        gmaps=gm_h,
        nodes=ln_h,
        nmaps=lnm_h,
        nnodes=ln.global_num_nodes,
        stats=stats,
    )


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("conn_name", ["rotcubes", "square"])
@pytest.mark.parametrize("P", [1, 3, 8])
def test_kernel_outputs_bit_exact(goldens, conn_name, P):
    got = spmd(P, lambda c: _run_scenario(c, conn_name))
    want = goldens[f"{conn_name}/P{P}"]
    assert len(got) == len(want) == P
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{conn_name}/P{P} rank {rank} diverged from seed golden"
