"""Optimization passes over the tensor IR.

Three graph passes, run in order by :func:`plan`, and the buffer
planning the emitter runs over each region's linearized schedule
(:func:`liveness`, :func:`assign_slots`, :func:`block_rows`; described
after the passes):

1. :func:`cse` — common-subexpression elimination.  Two pure nodes with
   the same op, attrs, and (canonicalized) inputs compute the same
   value; the later one is remapped onto the earlier.  Nodes *tainted*
   by mutation (targets of ``setitem``/``iop``/``lift`` statements,
   and anything reading them) are excluded: merging them could observe
   an array before/after a store.  Commutative einsums (the CG metric
   term ``g_ab``) canonicalize operand order first, so ``(a, b)`` and
   ``(b, a)`` share one contraction — elementwise multiplies commute
   bitwise, so this is exact.

2. :func:`infer_stages` — loop-invariant hoisting.  A node is
   ``bind``-stage when its value cannot depend on the runtime arguments
   (``q_local``/``q_all``): leaves that read bind tables, pure ops
   whose inputs are all bind-stage, and every extern — a model query
   such as the advection ``velocity(x)`` table, which must not see a
   run-stage input (:class:`~repro.mangll.compiler.ir.CompileError`:
   a kernel never calls the model).  Bind-stage nodes are evaluated
   ONCE at operator bind time by the interpreter in
   :mod:`repro.mangll.compiler.emit` and enter the kernel as
   precomputed tables; everything downstream sees identical floats, so
   hoisting never changes results, only when they are computed.

3. :func:`inline_plan` — fusion.  A run-stage pure node referenced
   exactly once is inlined into its consumer's expression instead of
   being materialized into a temporary.  Python evaluates the composed
   expression with the same operation order, so fusion only removes
   interpreter dispatch and temporaries.

Buffer planning works on what the emitter's linearization hands it: the
region's source lines in execution order, each naming the one
:class:`Buffer` it writes and the buffers it reads.  A buffer is a
block-sized array — ``units`` float64 items per row of the region's lead
dimension (elements of a block, pairs of a face-batch chunk).  Liveness
is the interval from a buffer's first line to its last; slot assignment
is first-fit over those intervals in units, so the workspace a binding
needs is ``units * rows`` items whatever the mesh; and the rows of a
block follow from the region's peak live units against one constant,
:data:`CACHE_BUDGET_BYTES`.  None of it touches an operand or an
operation — it only decides where results are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .ir import LEAF_OPS, PURE_OPS, CompileError, Graph


@dataclass
class Plan:
    """The result of running all passes over one graph."""

    graph: Graph
    #: node id -> canonical node id after CSE (identity where unchanged)
    remap: Dict[int, int]
    #: canonical node id -> "bind" | "run"
    stage: Dict[int, str]
    #: canonical run-stage node ids to inline into their single consumer
    inline: FrozenSet[int]
    #: canonical node id -> number of uses (stmts + node inputs)
    uses: Dict[int, int] = field(default_factory=dict)

    def canon(self, nid: int) -> int:
        """The canonical (post-CSE) id for ``nid``."""
        return self.remap.get(nid, nid)


#: What one block's live temporaries may occupy: workspace slots plus the
#: block-sized results NumPy allocates itself.  Half of a 4 MiB L2; on
#: the elastic kernel the measured rate is flat from half to twice this
#: and ~10 % worse at an eighth (per-call overhead) — not a tuning knob.
CACHE_BUDGET_BYTES = 2 << 20


@dataclass(frozen=True)
class Buffer:
    """A block-sized array written by a region's schedule."""

    #: float64 items per row of the region's lead dimension
    units: int
    #: lives in the workspace (else NumPy allocates it on every block)
    slot: bool


@dataclass(frozen=True)
class Line:
    """One emitted statement and the buffers it touches."""

    text: str
    writes: Optional[int] = None
    reads: FrozenSet[int] = frozenset()
    #: buffers whose slot ``writes`` may take over when they die here
    #: (whole-buffer operands of an elementwise ufunc, same shape)
    reuse: Tuple[int, ...] = ()


def tainted_nodes(g: Graph) -> FrozenSet[int]:
    """Mutation targets plus every node that (transitively) reads one."""
    out: Set[int] = set(g.mutated())
    # nodes are in topological order (append-only ids), one forward sweep
    for node in g.nodes:
        if any(i in out for i in node.inputs):
            out.add(node.id)
    return frozenset(out)


def cse(g: Graph) -> Dict[int, int]:
    """Map each node id to its canonical duplicate-free representative."""
    taint = tainted_nodes(g)
    remap: Dict[int, int] = {}
    seen: Dict[Tuple, int] = {}
    for node in g.nodes:
        if node.op not in PURE_OPS or node.id in taint:
            remap[node.id] = node.id
            continue
        key = g.structural_key(node.id, remap)
        if key in seen:
            remap[node.id] = seen[key]
        else:
            seen[key] = node.id
            remap[node.id] = node.id
    return remap


def infer_stages(g: Graph, remap: Dict[int, int]) -> Dict[int, str]:
    """Classify every canonical node as bind-time or run-time."""
    taint = tainted_nodes(g)
    stage: Dict[int, str] = {}
    for node in g.nodes:
        cid = remap[node.id]
        if cid != node.id:
            stage[node.id] = stage[cid]
            continue
        if node.op in ("table", "barg", "const"):
            s = "bind"
        elif node.op == "arg":
            s = "run"
        elif node.op == "extern" and (
            node.id in taint or any(stage[remap[i]] != "bind" for i in node.inputs)
        ):
            raise CompileError(f"model.{node.attr('method')} (v{node.id}) would run in the kernel")
        elif node.id in taint:
            s = "run"
        else:
            s = "bind" if all(stage[remap[i]] == "bind" for i in node.inputs) else "run"
        stage[node.id] = s
    return stage


def count_uses(g: Graph, remap: Dict[int, int]) -> Dict[int, int]:
    """Canonical-id use counts across node inputs and statements."""
    uses: Dict[int, int] = {}

    def bump(nid: int) -> None:
        cid = remap[nid]
        uses[cid] = uses.get(cid, 0) + 1

    for node in g.nodes:
        if remap[node.id] != node.id:
            continue  # duplicates are never emitted; their inputs don't count
        for i in node.inputs:
            bump(i)
    for s in g.stmts:
        for nid in (s.target, s.value, s.rows):
            if nid is not None:
                bump(nid)
    return uses


def inline_plan(
    g: Graph, remap: Dict[int, int], stage: Dict[int, str], uses: Dict[int, int]
) -> FrozenSet[int]:
    """Run-stage pure non-leaf nodes safe to fuse into their one consumer."""
    taint = tainted_nodes(g)
    out: Set[int] = set()
    for node in g.nodes:
        if remap[node.id] != node.id or node.op in LEAF_OPS:
            continue
        if stage[node.id] != "run" or node.op not in PURE_OPS:
            continue
        if node.id in g.mutated():
            continue  # materialized by construction (zeros + setitem)
        # Tainted readers stay statement-ordered: inlining one into a
        # consumer that the emitter places after a later store would
        # change which value it reads.
        if node.id in taint:
            continue
        if uses.get(node.id, 0) == 1:
            out.add(node.id)
    return frozenset(out)


def plan(g: Graph) -> Plan:
    """Run CSE, stage inference and fusion planning over ``g``."""
    remap = cse(g)
    stage = infer_stages(g, remap)
    uses = count_uses(g, remap)
    inline = inline_plan(g, remap, stage, uses)
    return Plan(graph=g, remap=remap, stage=stage, inline=inline, uses=uses)


# --- Buffer planning --------------------------------------------------------


def liveness(lines: Sequence[Line], nbuffers: int) -> List[Tuple[int, int]]:
    """``(first, last)`` line index touching each buffer (``(-1, -1)``: none)."""
    live = [(-1, -1)] * nbuffers
    for i, line in enumerate(lines):
        touched = set(line.reads)
        if line.writes is not None:
            touched.add(line.writes)
        for b in touched:
            first, _ = live[b]
            live[b] = (i if first < 0 else first, i)
    return live


def assign_slots(
    buffers: Sequence[Buffer], lines: Sequence[Line]
) -> Tuple[Dict[int, int], int, int]:
    """First-fit workspace offsets for the slot buffers of one region.

    Returns ``(offset per slot buffer, workspace units, peak live
    units)``, all per row; the peak counts the non-slot buffers too —
    it is what :func:`block_rows` holds against the cache budget.  A
    buffer is placed when its first line is reached and released after
    its last, so a result never overlaps an operand of the line that
    computes it — except by taking over, exactly, the slot of an operand
    the line names in ``reuse`` and that dies there (``out=`` aliasing an
    elementwise input is the one overlap NumPy defines).
    """
    live = liveness(lines, len(buffers))
    starts: Dict[int, List[int]] = {}
    ends: Dict[int, List[int]] = {}
    for b, (first, last) in enumerate(live):
        if first >= 0:
            starts.setdefault(first, []).append(b)
            ends.setdefault(last, []).append(b)
    offset: Dict[int, int] = {}
    placed: Dict[int, int] = {}  # live slot buffer -> offset
    extent = peak = live_units = 0
    for i, line in enumerate(lines):
        for b in starts.get(i, ()):
            live_units += buffers[b].units
            if not buffers[b].slot:
                continue
            donor = next(
                (
                    c
                    for c in line.reuse
                    if b == line.writes
                    and c in placed
                    and live[c][1] == i
                    and buffers[c].units == buffers[b].units
                ),
                None,
            )
            if donor is not None:
                at = placed.pop(donor)
            else:
                at = 0
                for lo, c in sorted((o, c) for c, o in placed.items()):
                    if lo - at >= buffers[b].units:
                        break
                    at = max(at, lo + buffers[c].units)
            placed[b] = offset[b] = at
            extent = max(extent, at + buffers[b].units)
        peak = max(peak, live_units)
        for b in ends.get(i, ()):
            live_units -= buffers[b].units
            placed.pop(b, None)
    return offset, extent, peak


def block_rows(peak_units: int) -> int:
    """Rows per block so a block's live temporaries fit the cache budget."""
    return max(1, CACHE_BUDGET_BYTES // (8 * max(peak_units, 1)))
