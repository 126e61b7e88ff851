"""Emission: planned IR graphs -> flat NumPy kernel source + bind values.

Two halves of one contract:

* :func:`analyze` linearizes a planned graph region by region into the
  *run-stage* lines of a specialized kernel, and :class:`Emitter` prints
  them as a function.  Bind-stage nodes are referenced as ``P["vN"]``
  (global) or ``B["vN"]`` (per face batch).  Face regions emit as one
  ``for B in P["fb"]:`` loop with a ``B["k"]`` dispatch.  Every face
  region *deposits* its lifted rows into the lift buffer ``P["lb"]`` at
  bind-time positions, and the tail applies the whole buffer with one
  ``np.subtract.at`` (``lift``) in buffer order.  The lifts of one
  element's faces share edge/corner nodes, so that order is part of
  bit-identity: for the advection kind it is the reference's batch
  order, and the batches may come in any order and merge freely.

* :class:`BindEvaluator` interprets the *bind-stage* subgraph once at
  operator bind time, producing exactly the ``P``/``B`` entries the
  emitted source references (:func:`analyze` records them as it emits
  each reference, so the two sides cannot drift).

The ``main`` and face regions are **planned**: the region's lead
dimension (the elements of ``main``, the pairs of a face batch) is cut
into blocks of a compiler-derived size; bind tables and arguments enter
each block as slices; pointwise templates are parsed into their ufunc
sequence (``a*b + c*d`` is ``multiply, multiply, add`` — the tree Python
itself would evaluate, so every float is the same) and each call, with
``matmul``, ``take`` and the transposing copies, is written in its
``out=`` form into a slot of the binding's workspace ``P["ws"]``
(:func:`repro.mangll.compiler.passes.assign_slots`).  What NumPy cannot
do into a given array — ``einsum`` (its accumulation order follows its
operands' strides, ``out=`` included), ``np.where`` — is left allocating
its block-sized result.  A ``main`` or face region that cannot be
planned is a :class:`CompileError`.  The ``tail`` alone is **plain**:
one expression per statement over the whole lead (the lift and the
inverse mass), single-use nodes fused into their consumer.

Shapes come from probing, not from a shape algebra: every value is
computed twice on stand-in operands built from the leaves' declared
shapes (:func:`repro.mangll.compiler.ir.probe_leaf`), at two extents of
each lead, and NumPy reports the result shapes.  A dimension that
differs between the probes is ``k * rows``; anything else is a literal.

:func:`assert_communication_free` is the layering guard: generated
kernels must never call a registered collective (the ghost exchange
stays in the bound operator), checked against the AST of every kernel
before it is published to the cache.
"""

from __future__ import annotations

import ast
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .ir import (
    LEADS,
    LEAF_OPS,
    CompileError,
    Graph,
    Node,
    Stmt,
    eval_op,
    eval_template,
    expression_code,
    probe_leaf,
)
from .passes import Buffer, Line, Plan, assign_slots, block_rows, plan as run_passes

#: Face region -> the ``B["k"]`` dispatch tag each batch dict carries;
#: regions emit in this order.
FACE_K = {
    "face_cf": 0, "face_b": 1, "face_coarse": 2, "face_pair": 3, "face_hang": 4,
    "face_mirror": 5,
}

_ATOM_RE = re.compile(
    r'^(?:[A-Za-z_][A-Za-z0-9_]*|[PB]\["[\w.\-]+"\](?:\[i0:i1\])?|-?\d+(?:\.\d+)?)$'
)

#: Serializes ``ast.parse``/``compile`` of generated source; shared with
#: :mod:`repro.mangll.compiler.cache` (see assert_communication_free).
_AST_LOCK = threading.Lock()

_SLOT_RE = re.compile(r"\bw\d+\b")

_IOP_UFUNC = {"+": "add", "-": "subtract", "*": "multiply"}
_BINOP_UFUNC = {ast.Add: "add", ast.Sub: "subtract", ast.Mult: "multiply", ast.Div: "true_divide"}
_ALLOCS = ("zeros", "zeros_like", "empty", "empty_like")


class _Unsupported(Exception):
    """This node has no ``out=`` form; it is emitted as its template."""


@dataclass
class RegionCode:
    """The emitted lines of one region."""

    #: rows per block; ``None`` for the plain (unblocked, unplanned) tail
    rows: Optional[int] = None
    #: workspace items the region needs per row of a block
    units: int = 0
    #: a face region's per-batch bind values that carry the batch rows on
    #: axis 0 — what the bind step slices to cut a batch into chunks
    row_tables: Tuple[int, ...] = ()
    #: before the block loop: allocations that outlive the region
    pre: List[str] = field(default_factory=list)
    #: the (block) body
    body: List[str] = field(default_factory=list)
    #: after the loop: the return
    post: List[str] = field(default_factory=list)


@dataclass
class Analysis:
    """Planned graph, its emitted regions, and the bind values they name."""

    graph: Graph
    plan: Plan
    #: canonical node ids whose value depends on a per-batch bind value
    batch_dep: FrozenSet[int]
    #: canonical global bind node ids the source reads from ``P``, id order
    global_bind: Tuple[int, ...]
    #: region -> canonical batch-bind node ids it reads from ``B``, id order
    region_batch_bind: Dict[str, Tuple[int, ...]]
    #: region -> emitted lines
    regions: Dict[str, RegionCode]

    def workspace_items(self, rows: Dict[str, int]) -> int:
        """Workspace size for a binding whose regions see ``rows`` lead rows.

        ``rows`` maps a region to the largest lead extent it will run on
        (the local element count for ``main``, the largest batch for a
        face region; missing regions run on nothing).
        """
        return max(
            (rc.units * min(rc.rows, rows.get(name, 0))
             for name, rc in self.regions.items() if rc.rows is not None),
            default=0,
        )


# --- Linearization ----------------------------------------------------------


#: A value in the two shape probes.
_Probe = Tuple[Any, Any]


def _pair(f: Callable[[int], Any]) -> _Probe:
    """``f`` evaluated for probe 0 and probe 1."""
    return f(0), f(1)


@dataclass(frozen=True)
class _Val:
    """An operand: source text plus what the planner must know about it."""

    text: str
    #: its value in the two shape probes (``None``: unknown)
    probe: Optional[_Probe] = None
    #: buffers whose storage the expression reads
    roots: FrozenSet[int] = frozenset()
    #: the buffer this expression *is*, whole (an ``out=`` reuse candidate)
    own: Optional[int] = None


def _atom(s: str) -> str:
    return s if _ATOM_RE.match(s) else f"({s})"


def _shape(x: Any) -> Tuple[int, ...]:
    return tuple(np.shape(x))


def _parse_template(expr: str, nin: int) -> ast.expr:
    """The template's expression tree over the names ``_i0``, ``_i1`` …"""
    return ast.parse(expr.format(*[f"_i{k}" for k in range(nin)]), mode="eval").body


def _is_basic_index(idx: ast.expr) -> bool:
    """Ints, slices, ``...`` and ``None`` only: the result is a view."""
    items = idx.elts if isinstance(idx, ast.Tuple) else [idx]

    def literal(n: Optional[ast.expr]) -> bool:
        if n is None:
            return True
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            n = n.operand
        return isinstance(n, ast.Constant) and (
            n.value is None or n.value is Ellipsis or type(n.value) is int
        )

    return all(
        (isinstance(n, ast.Slice) and literal(n.lower) and literal(n.upper) and literal(n.step))
        or literal(n)
        for n in items
    )


class _Region:
    """Linearizes one region of an analyzed graph into lines.

    ``lead`` is the region's lead token (``"e"``/``"b"``) when it is
    planned, ``None`` for the plain tail (and whole-array allocations).
    ``scope`` maps the run-stage nodes already materialized to their
    operands.
    """

    def __init__(self, ctx: "_Context", lead: Optional[str], scope: Dict[int, _Val]) -> None:
        self.ctx = ctx
        self.g = ctx.graph
        self.p = ctx.plan
        self.lead = lead
        self.scope = scope
        self.lines: List[Line] = []
        self.buffers: List[Buffer] = []
        self.shapes: Dict[int, str] = {}  # slot buffer -> view shape source
        self.sliced: Dict[str, str] = {}  # block-view name -> full name
        self.row_tables: Set[int] = set()  # batch bind values with the lead on axis 0
        self.pre: List[str] = []
        self.post: List[str] = []
        self.used_bind: Set[int] = set()

    # -- probing ------------------------------------------------------------

    def _rows_of(self, probe: Optional[_Probe]) -> Optional[int]:
        """Items per lead row of a probed value (0: lead-independent).

        ``None`` when the size does not scale with this region's lead.
        """
        if probe is None or self.lead is None:
            return None
        n0, n1 = int(np.size(probe[0])), int(np.size(probe[1]))
        if n0 == n1:
            return 0
        l0, l1 = LEADS[self.lead]
        if n0 * l1 == n1 * l0:
            return n0 // l0
        return None

    def _lead_at_axis0(self, probe: _Probe) -> bool:
        """Whether a table/argument carries the region's lead on axis 0.

        Raises when it carries it anywhere else, or merged with another
        dimension: such a region cannot be cut into row slices.  A
        dimension following some *other* lead (``q_all``'s, say) is used
        whole.
        """
        assert self.lead is not None
        s0, s1 = _shape(probe[0]), _shape(probe[1])
        if len(s0) != len(s1):
            raise CompileError("rank follows the lead")
        found = False
        for axis, (d0, d1) in enumerate(zip(s0, s1)):
            k = d1 - d0
            if k == 0 or (d0 // k, d1 // k) != LEADS[self.lead]:
                continue
            if axis != 0 or k != 1:
                raise CompileError(f"lead {self.lead!r} off axis 0")
            found = True
        return found

    def _shape_text(self, probe: _Probe) -> str:
        """View shape of a slot buffer: literals, and ``k * nb`` on the lead."""
        assert self.lead is not None
        l0, l1 = LEADS[self.lead]
        dims = []
        s0, s1 = _shape(probe[0]), _shape(probe[1])
        if len(s0) != len(s1):
            raise _Unsupported
        for d0, d1 in zip(s0, s1):
            if d0 == d1:
                dims.append(str(d0))
                continue
            k = d1 - d0
            if k <= 0 or (d0, d1) != (k * l0, k * l1):
                raise _Unsupported
            dims.append("nb" if k == 1 else f"{k} * nb")
        return ", ".join(dims)

    # -- buffers ------------------------------------------------------------

    def _new_buffer(self, probe: _Probe, slot: bool) -> int:
        units = self._rows_of(probe)
        if slot:
            r0 = np.asarray(probe[0])
            if not units or r0.dtype != np.float64:
                raise _Unsupported
            self.shapes[len(self.buffers)] = self._shape_text(probe)
        elif units is None:
            raise CompileError("a result's size does not follow the lead")
        self.buffers.append(Buffer(units=units or 0, slot=slot))
        return len(self.buffers) - 1

    def _written(self, dest: _Val) -> Optional[int]:
        """The buffer a store through ``dest`` writes (None: not a buffer)."""
        if dest.own is not None:
            return dest.own
        return next(iter(dest.roots)) if len(dest.roots) == 1 else None

    def _line(self, text: str, writes: Optional[int] = None,
              reads: FrozenSet[int] = frozenset(), reuse: Tuple[int, ...] = ()) -> None:
        self.lines.append(Line(text, writes, reads, reuse))

    # -- operands -----------------------------------------------------------

    def val(self, nid: int) -> _Val:
        """The operand for node ``nid`` in the current scope."""
        cid = self.p.canon(nid)
        node = self.g.node(cid)
        if cid in self.scope:
            return self.scope[cid]
        if node.op == "arg" or self.p.stage[cid] == "bind":
            return self._leaf(cid, node)
        if cid in self.p.inline:
            return self.define(node)
        raise CompileError(f"node v{cid} referenced before materialization")

    def _leaf(self, cid: int, node: Node) -> _Val:
        probe = self.ctx.probe(cid)
        if node.op == "arg":
            text = str(node.attr("name"))
        else:
            self.used_bind.add(cid)
            table = "B" if cid in self.ctx.batch_dep else "P"
            text = f'{table}["v{cid}"]'
        if self.lead is None:
            return _Val(text, probe)
        if probe is None:
            raise CompileError(f"{text} has no declared shape")
        if not self._lead_at_axis0(probe):
            return _Val(text, probe)
        if self.lead == "b" and cid in self.ctx.batch_dep:
            # A batch is cut into chunks at bind: B already holds the slice.
            self.row_tables.add(cid)
            return _Val(text, probe)
        if self.lead == "b":
            raise CompileError(f"{text} carries batch rows but is not a batch value")
        if node.op == "arg":
            self.sliced[f"{text}_b"] = text
            return _Val(f"{text}_b", probe)
        return _Val(f"{text}[i0:i1]", probe)

    def ensure(self, nid: int) -> None:
        """Materialize ``nid`` (and its deps) if needed."""
        cid = self.p.canon(nid)
        node = self.g.node(cid)
        if node.op == "arg" or self.p.stage[cid] == "bind" or cid in self.scope:
            return
        for i in node.inputs:
            self.ensure(i)
        if cid in self.p.inline:
            return  # fused into its single consumer
        v = self.define(node)
        if v.own is None:
            # A view, or a result NumPy allocated: give it a name.
            self._line(f"v{cid} = {v.text}", None, v.roots)
            v = _Val(f"v{cid}", v.probe, v.roots)
        self.scope[cid] = v

    # -- definitions --------------------------------------------------------

    def define(self, node: Node, dest: Optional[_Val] = None) -> _Val:
        """The value of a pure run-stage node, written to ``dest`` if given."""
        if node.op == "stack" and self.lead is not None and dest is None:
            return self._stack(node)
        ins = [self.val(i) for i in node.inputs]
        if node.op == "pw" and self.lead is not None:
            mark = len(self.lines), len(self.buffers)
            try:
                tree = _parse_template(str(node.attr("expr")), len(ins))
                return self._walk(tree, ins, dest)
            except _Unsupported:
                del self.lines[mark[0]:], self.buffers[mark[1]:]
                for b in [b for b in self.shapes if b >= mark[1]]:
                    del self.shapes[b]
        v = self._plain(node, ins)
        return v if dest is None else self._into(dest, v)

    def _plain(self, node: Node, ins: Sequence[_Val]) -> _Val:
        """The node as one expression; NumPy allocates the result."""
        texts = [v.text for v in ins]
        if node.op == "pw":
            text = str(node.attr("expr")).format(*[_atom(s) for s in texts])
        elif node.op == "einsum":
            text = f'np.einsum("{node.attr("subs")}", {", ".join(texts)})'
        elif node.op == "stack":
            text = f"np.stack([{', '.join(texts)}], axis=0)"
        else:
            raise CompileError(f"cannot render op {node.op!r}")
        probe = self.ctx.probe(node.id)
        if probe is None and self.lead is not None:
            raise CompileError("a value of unknown shape")
        roots = frozenset().union(*[v.roots for v in ins])
        if self.lead is not None and probe is not None and self._rows_of(probe):
            # An unnamed block-sized result: live on the line that reads it.
            roots = roots | {self._new_buffer(probe, slot=False)}
        return _Val(text, probe, roots)

    def _stack(self, node: Node) -> _Val:
        """A plane block: each input is written straight into its plane."""
        probe = self.ctx.probe(node.id)
        if probe is None:
            raise CompileError("a value of unknown shape")
        try:
            k = self._new_buffer(probe, slot=True)
        except _Unsupported:
            return self._plain(node, [self.val(i) for i in node.inputs])
        for j, cid in enumerate(map(self.p.canon, node.inputs)):
            plane = _Val(f"w{k}[{j}]", (probe[0][j], probe[1][j]), frozenset({k}))
            if cid in self.p.inline and cid not in self.scope:
                self.define(self.g.node(cid), dest=plane)
            else:
                self._into(plane, self.val(cid))
        return _Val(f"w{k}", probe, frozenset({k}), own=k)

    # -- templates as ufunc sequences ---------------------------------------

    def _into(self, dest: Optional[_Val], v: _Val) -> _Val:
        if dest is None:
            return v
        self._line(f"np.copyto({dest.text}, {v.text})", self._written(dest), v.roots | dest.roots)
        return dest

    def _call(
        self,
        fn: str,
        args: Sequence[_Val],
        dest: Optional[_Val],
        kwargs: str = "",
    ) -> _Val:
        """``np.fn(*args, out=...)`` into ``dest`` or a fresh slot."""
        func = getattr(np, fn)
        kw = eval(f"dict({kwargs})", {"__builtins__": {}}, {"dict": dict}) if kwargs else {}  # noqa: S307
        probes = [self._probe_of(a) for a in args]
        with np.errstate(all="ignore"):
            probe = _pair(lambda w: func(*[p[w] for p in probes], **kw))
        text = ", ".join([a.text for a in args] + ([kwargs] if kwargs else []))
        reads = frozenset().union(*[a.roots for a in args])
        if np.ndim(probe[0]) == 0:
            return self._into(dest, _Val(f"np.{fn}({text})", probe, reads))
        if dest is not None and _shape(self._probe_of(dest)[0]) == _shape(probe[0]):
            self._line(f"np.{fn}({text}, out={dest.text})", self._written(dest), reads | dest.roots)
            return dest
        if not probe[0].flags.c_contiguous:
            # NumPy's own result would follow its operands' layout; a
            # C-ordered slot would hand other strides to a later einsum.
            raise _Unsupported
        k = self._new_buffer(probe, slot=True)
        elementwise = isinstance(func, np.ufunc) and func.signature is None
        reuse = tuple(
            a.own
            for a, p in zip(args, probes)
            if elementwise and a.own is not None and _shape(p[0]) == _shape(probe[0])
        )
        self._line(f"np.{fn}({text}, out=w{k})", k, reads, reuse)
        return self._into(dest, _Val(f"w{k}", probe, frozenset({k}), own=k))

    @staticmethod
    def _probe_of(v: _Val) -> _Probe:
        if v.probe is None:
            raise CompileError("a value of unknown shape")
        return v.probe

    def _view(self, base: _Val, suffix: str, dest: Optional[_Val], prefix: str = "") -> _Val:
        """``prefix base suffix`` where NumPy returns a view of ``base``."""
        base_probe = self._probe_of(base)
        code = expression_code(f"{prefix}_x{suffix}")
        try:
            probe = _pair(
                lambda w: eval(code, {"__builtins__": {}}, {"np": np, "_x": base_probe[w]})  # noqa: S307
            )
        except Exception as exc:  # noqa: BLE001 - not a view NumPy can take of this operand
            raise _Unsupported from exc
        if not (
            isinstance(probe[0], np.ndarray) and np.may_share_memory(probe[0], base_probe[0])
        ):
            raise _Unsupported  # a reshape that copies
        text = f"{prefix}{base.text}{suffix}" if prefix else f"{_atom(base.text)}{suffix}"
        return self._into(dest, _Val(text, probe, base.roots))

    def _fresh(self, probe: _Probe, dest: Optional[_Val]) -> _Val:
        """``dest`` when it has the shape of ``probe``, else a new slot."""
        if dest is not None and _shape(self._probe_of(dest)[0]) == _shape(probe[0]):
            return dest
        k = self._new_buffer(probe, slot=True)
        return _Val(f"w{k}", probe, frozenset({k}), own=k)

    def _copy(self, src: _Val, dest: Optional[_Val]) -> _Val:
        """A contiguous copy of ``src`` (a transpose, usually)."""
        p0, p1 = self._probe_of(src)
        out = self._fresh((np.ascontiguousarray(p0), np.ascontiguousarray(p1)), dest)
        self._line(f"np.copyto({out.text}, {src.text})", self._written(out), src.roots | out.roots)
        return out if dest is None or out is dest else self._into(dest, out)

    def _walk(self, t: ast.expr, ins: Sequence[_Val], dest: Optional[_Val]) -> _Val:
        """Emit the subtree ``t`` operation by operation; its operand."""
        if isinstance(t, ast.Name):
            if not t.id.startswith("_i"):
                raise _Unsupported
            return self._into(dest, ins[int(t.id[2:])])
        if isinstance(t, ast.Constant) and type(t.value) in (int, float):
            return self._into(dest, _Val(repr(t.value), (t.value, t.value)))
        if isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.USub):
            return self._call("negative", [self._walk(t.operand, ins, None)], dest)
        if isinstance(t, ast.BinOp) and type(t.op) in _BINOP_UFUNC:
            a = self._walk(t.left, ins, None)
            b = self._walk(t.right, ins, None)
            return self._call(_BINOP_UFUNC[type(t.op)], [a, b], dest)
        if isinstance(t, ast.Subscript) and _is_basic_index(t.slice):
            probe_src = ast.unparse(ast.Subscript(ast.Name("_x"), t.slice, ast.Load()))
            return self._view(self._walk(t.value, ins, None), probe_src[2:], dest)
        if isinstance(t, ast.Attribute) and t.attr == "T":
            return self._view(self._walk(t.value, ins, None), ".T", dest)
        if isinstance(t, ast.Call) and isinstance(t.func, ast.Attribute):
            params = ", ".join(ast.unparse(a) for a in t.args[1:])
            kwargs = ", ".join(ast.unparse(k) for k in t.keywords)
            owner, name = t.func.value, t.func.attr
            if not (isinstance(owner, ast.Name) and owner.id == "np"):
                base = self._walk(owner, ins, None)
                if name in ("reshape", "transpose") and not t.keywords:
                    axes = ", ".join(ast.unparse(a) for a in t.args)
                    return self._view(base, f".{name}({axes})", dest)
                raise _Unsupported
            if name == "moveaxis" and not t.keywords:
                return self._view(
                    self._walk(t.args[0], ins, None), f", {params})", dest, prefix="np.moveaxis("
                )
            if name == "ascontiguousarray" and len(t.args) == 1 and not t.keywords:
                return self._copy(self._walk(t.args[0], ins, None), dest)
            if name in _ALLOCS and not t.keywords:
                names = {f"_i{j}": self._probe_of(v) for j, v in enumerate(ins)}
                code = expression_code(ast.unparse(t))
                probe = _pair(
                    lambda w: eval(  # noqa: S307
                        code, {"__builtins__": {}}, {"np": np, **{n: p[w] for n, p in names.items()}}
                    )
                )
                out = self._fresh(probe, None)
                if name.startswith("zeros"):
                    self._line(f"{out.text}.fill(0.0)", out.own)
                return self._into(dest, out)
            if name == "take":
                args = [self._walk(a, ins, None) for a in t.args]
                return self._call("take", args, dest, kwargs)
            if isinstance(getattr(np, name, None), np.ufunc) and not t.keywords:
                return self._call(name, [self._walk(a, ins, None) for a in t.args], dest)
        raise _Unsupported

    # -- statements ---------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        """Emit one statement (materializing what it needs first)."""
        if s.kind == "ret":
            assert s.value is not None
            self.ensure(s.value)
            text = self.val(s.value).text
            if self.lead is None:
                self._line(f"return {text}")
            else:
                # After the block loop, and the whole array, not its last block.
                self.post.append(f"return {self.sliced.get(text, text)}")
            return
        if s.kind == "deposit":
            assert s.rows is not None and s.value is not None
            self.ensure(s.value)
            val = self.val(s.value)
            self._line(f'P["lb"][{self.val(s.rows).text}] = {val.text}', None, val.roots)
            return
        assert s.target is not None
        self.ensure(s.target)
        tgt = self.val(s.target)
        if s.kind == "lift":
            self._line(
                f'np.subtract.at({_atom(tgt.text)}.reshape(-1), P["lt"], P["lb"].reshape(-1))',
                self._written(tgt), tgt.roots,
            )
            return
        assert s.value is not None
        if s.kind == "setitem":
            self._store(s, tgt)
            return
        if s.kind != "iop":
            raise CompileError(f"unknown stmt kind {s.kind!r}")
        self.ensure(s.value)
        val = self.val(s.value)
        reads = tgt.roots | val.roots
        if self.lead is not None and s.sym in _IOP_UFUNC:
            self._line(
                f"np.{_IOP_UFUNC[s.sym]}({tgt.text}, {val.text}, out={tgt.text})",
                self._written(tgt), reads,
            )
        else:
            self._line(f"{tgt.text} {s.sym}= {val.text}", None, reads)

    def _store(self, s: Stmt, tgt: _Val) -> None:
        """``target[idx] = value``, computed in place when it can be."""
        assert s.value is not None
        cid = self.p.canon(s.value)
        node = self.g.node(cid)
        dest = None
        idx = ast.parse(f"_x[{s.idx}]", mode="eval").body
        if tgt.probe is not None and isinstance(idx, ast.Subscript) and _is_basic_index(idx.slice):
            dest = self._view(tgt, f"[{s.idx}]", None)
        if dest is not None and cid in self.p.inline and cid not in self.scope and node.op == "pw":
            for i in node.inputs:
                self.ensure(i)
            self.define(node, dest=dest)
            return
        self.ensure(s.value)
        val = self.val(s.value)
        self._line(f"{tgt.text}[{s.idx}] = {val.text}", self._written(tgt), tgt.roots | val.roots)


class _Context:
    """What every region of one graph shares: probes, bind bookkeeping."""

    def __init__(self, graph: Graph, plan: Plan) -> None:
        self.graph = graph
        self.plan = plan
        batch_dep: Set[int] = set()
        for node in graph.nodes:
            if plan.canon(node.id) != node.id:
                continue
            if node.op == "barg" or any(plan.canon(i) in batch_dep for i in node.inputs):
                batch_dep.add(node.id)
        self.batch_dep = frozenset(batch_dep)
        self._probes: Dict[int, Optional[_Probe]] = {}

    def probe_op(self, node: Node, ins: Sequence[Any]) -> Any:
        """One probe evaluation of a non-leaf node on stand-in operands."""
        with np.errstate(all="ignore"):
            if node.op == "extern":
                return eval_template(str(node.attr("like")), ins)
            return eval_op(node, ins)

    def probe(self, nid: int) -> Optional[_Probe]:
        """Both shape probes of an argument or a bind-stage node."""
        cid = self.plan.canon(nid)
        if cid in self._probes:
            return self._probes[cid]
        node = self.graph.node(cid)
        out: Optional[_Probe]
        if node.op in LEAF_OPS:
            a = probe_leaf(node, 0)
            out = None if a is None else (a, probe_leaf(node, 1))
        else:
            ins = [self.probe(i) for i in node.inputs]
            if any(p is None for p in ins):
                out = None
            else:
                known = [p for p in ins if p is not None]
                try:
                    out = _pair(lambda w: self.probe_op(node, [p[w] for p in known]))
                except Exception:  # noqa: BLE001 - an unprobeable template is an unknown shape
                    out = None
        self._probes[cid] = out
        return out

    # -- region structure ---------------------------------------------------

    def run_deps(self, stmts: Sequence[Stmt]) -> Set[int]:
        """Canonical run-stage non-leaf nodes the statements depend on."""
        seen: Set[int] = set()
        stack = [
            self.plan.canon(x) for s in stmts for x in (s.target, s.value, s.rows)
            if x is not None
        ]
        while stack:
            cid = stack.pop()
            node = self.graph.node(cid)
            if cid in seen or node.op == "arg" or self.plan.stage[cid] == "bind":
                continue
            seen.add(cid)
            stack.extend(self.plan.canon(i) for i in node.inputs)
        return seen


def _emit_region(
    ctx: _Context, region: str, lead: Optional[str], scope: Dict[int, _Val],
    escaping: FrozenSet[int],
) -> Tuple[_Region, RegionCode]:
    """Linearize one region, planned if ``lead`` is given."""
    rb = _Region(ctx, lead, dict(scope))
    if lead == "e":
        # Arrays that outlive the block loop are allocated before it, by
        # their own template on the whole arguments, and enter each
        # block as a row slice.
        for cid in sorted(escaping):
            node = ctx.graph.node(cid)
            tree = _parse_template(str(node.attr("expr")), len(node.inputs)) if node.op == "pw" else None
            if not (
                isinstance(tree, ast.Call)
                and isinstance(tree.func, ast.Attribute)
                and tree.func.attr in _ALLOCS
            ):
                raise CompileError(f"v{cid} outlives the block loop and is not an allocation")
            if any(
                ctx.graph.node(c).op != "arg" and ctx.plan.stage[c] != "bind"
                for c in map(ctx.plan.canon, node.inputs)
            ):
                raise CompileError(f"v{cid} outlives the block loop and is sized by a block")
            whole = _Region(ctx, None, {})
            v = whole.define(node)
            rb.pre.append(f"v{cid} = {v.text}")
            rb.used_bind |= whole.used_bind
            if v.probe is None:
                raise CompileError("a value of unknown shape")
            if rb._lead_at_axis0(v.probe):
                rb.sliced[f"v{cid}_b"] = f"v{cid}"
                rb.scope[cid] = _Val(f"v{cid}_b", v.probe)
            else:
                rb.scope[cid] = _Val(f"v{cid}", v.probe)
    for s in ctx.graph.stmts:
        if s.region == region:
            rb.stmt(s)
    rc = RegionCode(pre=rb.pre, post=rb.post)
    if lead is None:
        rc.body = [ln.text for ln in rb.lines]
        return rb, rc
    offset, rc.units, peak = assign_slots(rb.buffers, rb.lines)
    rc.rows = block_rows(peak)
    rc.row_tables = tuple(sorted(rb.row_tables))
    rc.body = [f"{name} = {full}[i0:i1]" for name, full in rb.sliced.items()]
    # One view per distinct (slot, shape): the many temporaries that
    # take turns in a slot share its name.
    views: Dict[Tuple[int, str], str] = {}
    name_of: Dict[str, str] = {}
    for k, at in sorted(offset.items()):
        key = (at, rb.shapes[k])
        if key not in views:
            views[key] = f"w{len(views)}"
            lo = f"{at} * nb" if at else "0"
            rc.body.append(
                f"{views[key]} = A[{lo}:{at + rb.buffers[k].units} * nb].reshape({key[1]})"
            )
        name_of[f"w{k}"] = views[key]
    rc.body += [_SLOT_RE.sub(lambda m: name_of[m.group()], ln.text) for ln in rb.lines]
    return rb, rc


def analyze(graph: Graph) -> Analysis:
    """Run the passes, linearize every region, and lay out the bind values."""
    p = run_passes(graph)
    ctx = _Context(graph, p)
    by_region: Dict[str, List[Stmt]] = {}
    for s in graph.stmts:
        by_region.setdefault(s.region, []).append(s)
    later = ctx.run_deps(
        [s for s in graph.stmts if s.region != "main"]
        + [s for s in graph.stmts if s.kind == "ret"]
    )
    mutated = graph.mutated() | {
        p.canon(s.value) for s in graph.stmts if s.kind == "ret" and s.value is not None
    }
    main_deps = ctx.run_deps(by_region.get("main", []))
    shared = main_deps & later

    regions: Dict[str, RegionCode] = {}
    used_global: Set[int] = set()
    used_batch: Dict[str, Set[int]] = {}
    scope: Dict[int, _Val] = {}
    # CPython's AST constructor is not safe under concurrent parses, and
    # thread-backend ranks bind — hence analyze — concurrently.
    with _AST_LOCK:
        for region in [r for r in ("main", *FACE_K, "tail") if r in by_region]:
            lead = {"main": "e", "tail": None}.get(region, "b")
            try:
                if lead == "e" and any(c not in mutated for c in shared):
                    raise CompileError("a computed value is shared with a later region")
                rb, rc = _emit_region(ctx, region, lead, scope, frozenset(shared))
            except CompileError as exc:
                raise CompileError(f"region {region!r}: {exc}") from None
            regions[region] = rc
            if region == "main":
                # Later regions see the arrays that outlive the block loop.
                scope = {c: _Val(f"v{c}", rb.scope[c].probe) for c in shared}
            for cid in rb.used_bind:
                if cid in ctx.batch_dep:
                    used_batch.setdefault(region, set()).add(cid)
                else:
                    used_global.add(cid)
    return Analysis(
        graph=graph,
        plan=p,
        batch_dep=ctx.batch_dep,
        global_bind=tuple(sorted(used_global)),
        region_batch_bind={r: tuple(sorted(c)) for r, c in used_batch.items()},
        regions=regions,
    )


# --- Source emission --------------------------------------------------------


class Emitter:
    """Prints one analyzed graph as a flat Python function."""

    def __init__(self, analysis: Analysis) -> None:
        self.an = analysis

    def emit(self, name: str, params: Tuple[str, ...], prologue: Tuple[str, ...] = ()) -> str:
        """The full function source for this graph."""
        out = [f"def {name}({', '.join(params)}):"]

        def put(lines: Sequence[str], indent: str) -> None:
            for text in lines:
                out.extend(indent + part for part in text.split("\n"))

        put(prologue, "    ")
        regions = self.an.regions
        if any(rc.rows is not None for rc in regions.values()):
            out.append('    A = P["ws"]')

        def region(rname: str, indent: str) -> None:
            rc = regions[rname]
            put(rc.pre, indent)
            if rc.rows is None:
                put(rc.body, indent)
            elif rname in FACE_K:
                out.append(f'{indent}nb = B["n"]')  # one chunk: bind cut the batch
                put(rc.body, indent)
            else:
                out.append(f"{indent}for i0 in range(0, ne, {rc.rows}):")
                out.append(f"{indent}    i1 = min(i0 + {rc.rows}, ne)")
                out.append(f"{indent}    nb = i1 - i0")
                put(rc.body, indent + "    ")
            put(rc.post, indent)

        if "main" in regions:
            region("main", "    ")
        face = [r for r in FACE_K if r in regions]
        if face:
            out.append('    for B in P["fb"]:')
            out.append('        k = B["k"]')
            kw = "if"
            for r in face:
                out.append(f"        {kw} k == {FACE_K[r]}:")
                region(r, "            ")
                kw = "elif"
        if "tail" in regions:
            region("tail", "    ")
        return "\n".join(out) + "\n"


# --- Bind-stage interpretation ----------------------------------------------


class BindEvaluator:
    """Evaluates the bind-stage subgraph into the P/B value dicts."""

    def __init__(self, analysis: Analysis, tables: Dict[str, Any], model: Any) -> None:
        """``tables`` names the ``table`` leaves; ``model`` serves externs."""
        self.an = analysis
        self.g = analysis.graph
        self.p = analysis.plan
        self.tables = tables
        self.model = model
        self._gmemo: Dict[int, Any] = {}

    def _eval(
        self, cid: int, benv: Optional[Dict[str, Any]], bmemo: Optional[Dict[int, Any]]
    ) -> Any:
        memo = bmemo if cid in self.an.batch_dep else self._gmemo
        assert memo is not None
        if cid in memo:
            return memo[cid]
        node = self.g.node(cid)
        ins = [self._eval(self.p.canon(i), benv, bmemo) for i in node.inputs]
        if node.op == "table":
            val = self.tables[node.attr("name")]
        elif node.op == "barg":
            assert benv is not None
            val = benv[node.attr("name")]
        elif node.op == "const":
            val = node.attr("value")
        else:
            val = eval_op(node, ins, self.model)
        memo[cid] = val
        return val

    def global_bind(self) -> Dict[str, Any]:
        """All ``P`` entries of this graph."""
        return {f"v{cid}": self._eval(cid, None, None) for cid in self.an.global_bind}

    def batch_bind(self, region: str, env: Dict[str, Any]) -> Dict[str, Any]:
        """The ``B`` entries for one mortar batch of ``region``."""
        bmemo: Dict[int, Any] = {}
        return {
            f"v{cid}": self._eval(cid, env, bmemo)
            for cid in self.an.region_batch_bind.get(region, ())
        }


# --- Communication-freedom guard --------------------------------------------


def collective_call_names() -> FrozenSet[str]:
    """Every registered collective name (comm, forest, function, method)."""
    from repro.parallel.collectives import (
        COLLECTIVE_FUNCTIONS,
        COLLECTIVE_METHODS,
        COMM_COLLECTIVE_NAMES,
        FOREST_COLLECTIVE_NAMES,
    )

    return frozenset(
        COMM_COLLECTIVE_NAMES
        | FOREST_COLLECTIVE_NAMES
        | set(COLLECTIVE_METHODS)
        | {s.name for s in COLLECTIVE_FUNCTIONS.values()}
    )


def assert_communication_free(source: str, key: str) -> None:
    """Reject generated source that calls any registered collective.

    Compiled kernels run strictly between the ghost exchange and the
    next collective; a collective inside one would both break the
    layering and hide communication from spmdlint's registry.
    """
    banned = collective_call_names()
    if not any(name in source for name in banned):
        return  # a call has to spell its callee: nothing to look for
    # CPython's AST constructor is not safe under concurrent parses
    # (``SystemError: AST constructor recursion depth mismatch``), and
    # thread-backend ranks do bind — hence compile — concurrently.
    with _AST_LOCK:
        tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name in banned:
            raise CompileError(
                f"generated kernel {key!r} calls collective {name!r} "
                f"(line {node.lineno}); kernels must be communication-free"
            )
