"""A small tensor IR for the mangll element kernels.

The compiler lowers each mangll operator — the dG right-hand side, the
CG element kernels, the p-transfer contractions — into a graph of
*typed tensor ops*:

``einsum``
    A contraction with explicit subscripts (the unit of specialization:
    subscripts are baked per ``(dim, degree)``).
``pw``
    A pointwise expression template over its inputs (adds, products,
    slices, reshapes, masks, ``np.where`` — anything elementwise — and
    the flat-index ``np.take`` face-trace gathers).
``stack``
    Equal-shaped inputs stacked along a new leading axis
    (``np.stack(..., axis=0)``) — the field-major plane block of the
    elastic lowering.  A planned region writes each plane in place and
    never runs the stack itself.
``extern``
    A bind-time query of the flux model on bind-stage inputs (the
    advection ``velocity(x)``, the elastic ``material(x)``).  Its value
    is a bind table: a compiled kernel never calls the model, and an
    extern with a run-stage input is a :class:`CompileError`.
``arg`` / ``table`` / ``barg`` / ``const``
    Leaves: runtime kernel arguments, bind-time global tables,
    bind-time per-mortar-batch values, and literal scalars.  A leaf may
    declare its ``shape`` — ints plus one *lead* token (:data:`LEADS`:
    ``"e"`` local elements, ``"a"`` local + ghost elements, ``"b"``
    mortar-batch rows).  Declared shapes are what lets the emitter probe
    every value's shape (:func:`probe_leaf`), slice the region's lead
    into blocks, and give temporaries workspace slots; a graph without
    them is emitted unblocked and unplanned, as before.

Side effects are explicit: a :class:`Stmt` list orders accumulations,
slice stores and the staged face lifts.  Pure nodes
never reorder across the statement that first needs them, which is the
contract that keeps the emitted kernel *bit-identical* to the
interpreted reference: the passes (:mod:`repro.mangll.compiler.passes`)
only deduplicate, hoist, or inline computations — they never change
which floating-point operations run or in which order.

Graphs are built region by region (``main``, one region per mortar
kind, ``tail``); the emitter turns regions into the batch-loop branches
of the generated kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import CodeType
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Ops with no side effects; everything else must flow through a Stmt.
PURE_OPS = frozenset({"arg", "table", "barg", "const", "pw", "einsum", "stack", "extern"})

#: Leaf ops: emitted as a name / lookup, never as an assignment.
LEAF_OPS = frozenset({"arg", "table", "barg", "const"})

Attrs = Tuple[Tuple[str, Any], ...]


class CompileError(RuntimeError):
    """Raised when lowering/emission violates a compiler invariant."""


#: Lead token of a declared leaf shape -> its extent in the two shape
#: probes.  Consecutive integers, so a probed dimension pair ``(d0, d1)``
#: that differs names its lead uniquely: ``k = d1 - d0`` rows-per-lead
#: and ``d0 // k`` is the first-probe extent.
LEADS: Dict[str, Tuple[int, int]] = {"e": (2, 3), "b": (4, 5), "a": (6, 7)}

#: A leaf's declared shape: ints and at most one lead token.
Shape = Tuple[Any, ...]


@dataclass(frozen=True)
class Node:
    """One value in the graph (SSA: nodes are immutable and numbered)."""

    id: int
    op: str
    inputs: Tuple[int, ...]
    attrs: Attrs

    def attr(self, name: str, default: Any = None) -> Any:
        """Look up one attribute by name."""
        for k, v in self.attrs:
            if k == name:
                return v
        return default


@dataclass(frozen=True)
class Stmt:
    """One ordered side effect.

    ``kind`` is ``"iop"`` (``target op= value`` with ``op`` in the
    ``sym`` attr), ``"setitem"`` (``target[idx] = value`` with the index
    expression in ``idx``),
    ``"deposit"`` (stage ``value`` at the rows ``rows`` of the kernel's
    lift buffer), ``"lift"`` (apply every staged row to ``target``, in
    lift-buffer order), or ``"ret"``.
    """

    kind: str
    region: str
    target: Optional[int] = None
    value: Optional[int] = None
    sym: str = ""
    idx: str = ""
    rows: Optional[int] = None


class Graph:
    """An append-only IR graph plus its ordered statement list."""

    def __init__(self) -> None:
        """Create an empty graph positioned in the ``main`` region."""
        self.nodes: List[Node] = []
        self.stmts: List[Stmt] = []
        self.region_order: List[str] = ["main"]
        self._region = "main"

    # -- construction -------------------------------------------------------

    def region(self, name: str) -> None:
        """Switch the current region (regions emit as batch-loop branches)."""
        self._region = name
        if name not in self.region_order:
            self.region_order.append(name)

    def add(self, op: str, inputs: Tuple[int, ...] = (), **attrs: Any) -> int:
        """Append a node and return its id."""
        node = Node(len(self.nodes), op, inputs, tuple(sorted(attrs.items())))
        self.nodes.append(node)
        return node.id

    def arg(self, name: str, shape: Optional[Shape] = None) -> int:
        """A runtime kernel argument (``q_local``, ``q_all``)."""
        return self.add("arg", name=name, shape=shape)

    def table(self, name: str, shape: Optional[Shape] = None) -> int:
        """A bind-time global table (geometry, quadrature, model scalars)."""
        return self.add("table", name=name, shape=shape)

    def barg(self, name: str, shape: Optional[Shape] = None, index: bool = False) -> int:
        """A bind-time per-mortar-batch value (``B[name]`` at bind).

        ``index=True`` marks an integer index array (probed as zeros, so
        every probe gather stays in bounds).
        """
        return self.add("barg", name=name, shape=shape, index=index)

    def const(self, value: Any) -> int:
        """A literal scalar."""
        return self.add("const", value=value)

    def pw(self, expr: str, *inputs: int) -> int:
        """A pointwise expression template (``{0}``, ``{1}`` … inputs)."""
        return self.add("pw", tuple(inputs), expr=expr)

    def einsum(self, subs: str, *inputs: int) -> int:
        """A contraction."""
        return self.add("einsum", tuple(inputs), subs=subs)

    def stack(self, *inputs: int) -> int:
        """Equal-shaped inputs as the planes of one ``(len, ...)`` block."""
        return self.add("stack", tuple(inputs))

    def extern(self, method: str, *inputs: int, like: str) -> int:
        """``model.<method>(*inputs)``, evaluated once at bind.

        ``like`` is a template over the inputs giving an array shaped as
        the call's result — the shape probe's stand-in for the model,
        which does not exist at compile time.
        """
        return self.add("extern", tuple(inputs), method=method, like=like)

    # -- statements ---------------------------------------------------------

    def iop(self, sym: str, target: int, value: int) -> None:
        """``target <sym>= value`` (``+``, ``*`` …) on a materialized node."""
        self.stmts.append(Stmt("iop", self._region, target, value, sym=sym))

    def setitem(self, target: int, idx: str, value: int) -> None:
        """``target[idx] = value``."""
        self.stmts.append(Stmt("setitem", self._region, target, value, idx=idx))

    def deposit(self, rows: int, value: int) -> None:
        """Stage a face lift: ``value``'s rows go to rows ``rows`` of the
        kernel's lift buffer (``P["lb"]``, one row per lifted face row of
        the mesh) — a plain store, no sum."""
        self.stmts.append(Stmt("deposit", self._region, value=value, rows=rows))

    def lift(self, target: int) -> None:
        """Subtract every staged row from ``target`` at once.

        One ``np.subtract.at`` over the flat ``target`` at the bind-time
        lift targets (``P["lt"]``), in lift-buffer order: each entry of
        ``target`` receives its face contributions in the order the
        reference's per-batch ``np.add.at(..., -value)`` adds them (and
        ``a - b == a + (-b)`` in IEEE-754), so the sums are the same bits.
        ``target`` must be C-contiguous: its flat view is written.
        """
        self.stmts.append(Stmt("lift", self._region, target))

    def ret(self, value: int) -> None:
        """Mark the kernel's return value."""
        self.stmts.append(Stmt("ret", self._region, value=value))

    # -- queries ------------------------------------------------------------

    def node(self, nid: int) -> Node:
        """The node with id ``nid``."""
        return self.nodes[nid]

    def mutated(self) -> frozenset:
        """Ids of nodes that are targets of any mutating statement."""
        out = set()
        for s in self.stmts:
            if s.kind in ("iop", "setitem", "lift") and s.target is not None:
                out.add(s.target)
        return frozenset(out)

    def structural_key(self, nid: int, remap: Dict[int, int]) -> Tuple:
        """CSE key of a node under an id remap."""
        node = self.nodes[nid]
        return (node.op, tuple(remap.get(i, i) for i in node.inputs), node.attrs)


# --- Evaluation -------------------------------------------------------------


@lru_cache(maxsize=4096)
def expression_code(source: str) -> CodeType:
    """``source`` compiled once: binds and probes evaluate it many times."""
    return compile(source, "<repro-kernel template>", "eval")


def eval_template(expr: str, ins: Sequence[Any]) -> Any:
    """Evaluate a ``pw`` template on concrete operands."""
    keys = [f"_i{k}" for k in range(len(ins))]
    scope: Dict[str, Any] = dict(zip(keys, ins))
    scope["np"] = np
    return eval(expression_code(expr.format(*keys)), {"__builtins__": {}}, scope)  # noqa: S307 - templates are compiler-owned


def eval_op(node: Node, ins: Sequence[Any], model: Any = None) -> Any:
    """The value of one pure non-leaf node on concrete operands.

    The one definition of what the ops compute: the bind evaluator runs
    it on the real tables, the shape probe on stand-ins.
    """
    if node.op == "pw":
        return eval_template(str(node.attr("expr")), ins)
    if node.op == "einsum":
        return np.einsum(node.attr("subs"), *ins)
    if node.op == "stack":
        return np.stack(list(ins), axis=0)
    if node.op == "extern":
        return getattr(model, node.attr("method"))(*ins)
    raise ValueError(f"cannot evaluate op {node.op!r}")


def probe_leaf(node: Node, which: int) -> Any:
    """Stand-in for a leaf in shape probe ``which`` (0 or 1), or None.

    Floats are ones (no probe divides by zero), indices zeros.
    """
    if node.op == "const":
        return node.attr("value")
    shape = node.attr("shape")
    if shape is None:
        return None
    dims = tuple(LEADS[d][which] if isinstance(d, str) else d for d in shape)
    if node.attr("index"):
        return np.zeros(dims, dtype=np.int64)
    return np.ones(dims) if dims else 1.0
