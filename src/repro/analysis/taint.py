"""The rank-taint dataflow pass behind ``spmdlint``.

The pass walks one function (or a module's top level) tracking, per
variable, two taint marks:

* ``rank`` — the value differs across ranks deterministically
  (``comm.rank``, ``forest.local``, ``gather``/``scatter``/``exchange``
  results, parameters named ``rank``).
* ``nondet`` — the value differs run to run (set iteration order,
  ``os.getpid``, ``time.time``, unseeded RNG draws).

Collective call sites (classified through the shared registry —
``Comm`` methods on comm-like receivers, collective ``Forest`` methods
on forest-like receivers, registry-listed module functions resolved
through the import table, and local helpers whose summary says they
communicate) are then checked against the control context:

* under a tainted branch -> SPMD001,
* under a loop with tainted trip count -> SPMD002,
* inside an exception-swallowing ``try`` (or an ``except`` handler)
  -> SPMD003,
* fed a ``nondet`` payload -> SPMD004,

plus the syntactic rules SPMD006 (hand-built layer stacks) and SPMD007
(unseeded RNG in SPMD functions).  A rank-dependent
``return``/``break``/``continue`` followed by a later collective also
raises SPMD001 — the "early exit" form of collective divergence.  Rank-dependent ``raise`` is *not*
flagged: an uncaught exception aborts the whole machine attributably
(sanitizer/watchdog territory) rather than silently diverging the
sequence — unless a swallowing handler is in scope, which is exactly
SPMD003.

Crucially, uniform-result collectives *launder* taint: the result of
``allreduce``/``bcast``/``allgather`` is identical on every rank, so
``if comm.allreduce(flag, LOR): forest.refine(...)`` is clean.  This
is what separates the paper-correct idiom from the PR-4 bug
(``if local_mask.any(): forest.coarsen(...)``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, ModuleIndex, dotted_path
from repro.analysis.registry import LintRegistry
from repro.analysis.report import Finding

__all__ = ["RANK", "NONDET", "EMPTY", "FunctionTaint", "Emit"]

RANK = "rank"
NONDET = "nondet"
Taint = FrozenSet[str]
EMPTY: Taint = frozenset()
_RANK: Taint = frozenset({RANK})
_NONDET: Taint = frozenset({NONDET})
_BOTH: Taint = frozenset({RANK, NONDET})

Emit = Callable[[Finding], None]


@dataclass
class _Frame:
    """One control-dependence context entered during the walk."""

    kind: str  # "branch" | "loop" | "try-swallow" | "except"
    taint: Taint = EMPTY
    line: int = 0
    detail: str = ""


@dataclass
class _CollectiveSite:
    """One collective call encountered in the function."""

    line: int
    name: str


def _describe(taint: Taint) -> str:
    """Human words for a taint set."""
    parts = []
    if RANK in taint:
        parts.append("rank-dependent")
    if NONDET in taint:
        parts.append("nondeterministic")
    return " and ".join(parts) or "clean"


class FunctionTaint:
    """Taint analysis of one function body (or a module's top level)."""

    def __init__(
        self,
        body: List[ast.stmt],
        *,
        index: ModuleIndex,
        registry: LintRegistry,
        path: str,
        function: str,
        emit: Emit,
        info: Optional[FunctionInfo] = None,
        summary_mode: bool = False,
    ) -> None:
        """Prepare the walk over ``body``.

        ``summary_mode`` computes the function's summary (no findings
        emitted); the engine's second pass emits findings for real.
        """
        self.body = body
        self.index = index
        self.registry = registry
        self.path = path
        self.function = function
        self.emit = emit if not summary_mode else (lambda f: None)
        self.info = info
        self.summary_mode = summary_mode

        self.taints: Dict[str, Taint] = {}
        self.kinds: Dict[str, Set[str]] = {}
        self.ctrl: List[_Frame] = []
        self.collectives: List[_CollectiveSite] = []
        self.return_taint: Taint = EMPTY
        self.tainted_exits: List[Tuple[int, str, Taint]] = []
        self.rng_sites: List[Tuple[ast.AST, str]] = []
        self.has_spmd_params = False
        self._seed_params()

    # Setup ----------------------------------------------------------------

    def _seed_params(self) -> None:
        """Seed parameter taints and kinds from names and annotations."""
        reg = self.registry
        if self.info is None:
            return
        node = self.info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs + list(
            filter(None, [args.vararg, args.kwarg])
        ):
            name = a.arg
            ann = ""
            if a.annotation is not None:
                ann = ast.unparse(a.annotation).strip("\"'")
            kinds: Set[str] = set()
            if ann.split(".")[-1] in reg.comm_annotations or self._name_matches(
                name, reg.comm_name_suffixes
            ):
                kinds.add("comm")
            if ann.split(".")[-1] in reg.forest_annotations or self._name_matches(
                name, reg.forest_name_suffixes
            ):
                kinds.add("forest")
            if kinds:
                self.kinds[name] = kinds
                self.has_spmd_params = True
            if name in reg.rank_param_names:
                self.taints[name] = _RANK
        cls = self.info.class_name
        if cls is not None:
            if cls in reg.forest_annotations:
                self.kinds["self"] = {"forest"}
            elif cls.endswith("Comm") or cls in reg.comm_annotations:
                self.kinds["self"] = {"comm"}

    @staticmethod
    def _name_matches(name: str, suffixes: Tuple[str, ...]) -> bool:
        """Whether ``name`` denotes one of the suffix families."""
        low = name.lower()
        return any(low == s or low.endswith(s) for s in suffixes)

    # Entry point ----------------------------------------------------------

    def run(self) -> None:
        """Walk the body (loops twice for loop-carried taint), then the
        early-exit post-pass."""
        self._exec_block(self.body)
        for line, kind, taint in self.tainted_exits:
            for site in self.collectives:
                if site.line > line:
                    self._finding(
                        "SPMD001",
                        site.line,
                        0,
                        f"collective {site.name} may be skipped by a "
                        f"{_describe(taint)} {kind} earlier in the function",
                    )
                    break
        if self.rng_sites and self.is_spmd_function:
            for node, what in self.rng_sites:
                self._finding(
                    "SPMD007",
                    node.lineno,
                    node.col_offset,
                    f"unseeded RNG draw {what} in an SPMD function; "
                    "use a uniformly seeded Generator",
                )

    @property
    def is_spmd_function(self) -> bool:
        """Whether this function visibly participates in SPMD execution."""
        return self.has_spmd_params or bool(self.collectives)

    # Finding helpers ------------------------------------------------------

    def _finding(self, rule: str, line: int, col: int, message: str) -> None:
        """Emit one finding at (line, col)."""
        self.emit(
            Finding(rule, self.path, line, col, self.function, message)
        )

    def _note_collective(self, node: ast.AST, name: str) -> None:
        """Record a collective call site and check its control context."""
        self.collectives.append(_CollectiveSite(node.lineno, name))
        for frame in reversed(self.ctrl):
            if frame.kind in ("branch", "loop") and frame.taint:
                rule = "SPMD002" if frame.kind == "loop" else "SPMD001"
                where = (
                    "inside a loop with a"
                    if frame.kind == "loop"
                    else "under a"
                )
                self._finding(
                    rule,
                    node.lineno,
                    node.col_offset,
                    f"collective {name} {where} {_describe(frame.taint)} "
                    f"{frame.detail or frame.kind}",
                )
                break
        for frame in reversed(self.ctrl):
            if frame.kind in ("try-swallow", "except"):
                ctx = (
                    "inside a try whose handler swallows exceptions"
                    if frame.kind == "try-swallow"
                    else "inside an except handler"
                )
                self._finding(
                    "SPMD003",
                    node.lineno,
                    node.col_offset,
                    f"collective {name} {ctx}"
                    + (f" ({frame.detail})" if frame.detail else ""),
                )
                break

    def _check_payload(self, node: ast.Call, name: str) -> None:
        """SPMD004: nondeterministic expressions as collective payloads."""
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Starred):
                arg = arg.value
            if NONDET in self._eval(arg):
                self._finding(
                    "SPMD004",
                    node.lineno,
                    node.col_offset,
                    f"nondeterministic payload into collective {name} "
                    "(set iteration order / pid / time / unseeded RNG)",
                )
                break

    # Receiver classification ---------------------------------------------

    def _is_commlike(self, node: ast.AST) -> bool:
        """Whether ``node`` plausibly evaluates to a communicator."""
        reg = self.registry
        if isinstance(node, ast.Name):
            return "comm" in self.kinds.get(node.id, set()) or self._name_matches(
                node.id, reg.comm_name_suffixes
            )
        if isinstance(node, ast.Attribute):
            if node.attr in reg.comm_attr_names:
                return True
            key = self._pseudo_name(node)
            return key is not None and "comm" in self.kinds.get(key, set())
        return False

    def _is_forestlike(self, node: ast.AST) -> bool:
        """Whether ``node`` plausibly evaluates to a Forest."""
        reg = self.registry
        if isinstance(node, ast.Name):
            return "forest" in self.kinds.get(node.id, set()) or self._name_matches(
                node.id, reg.forest_name_suffixes
            )
        if isinstance(node, ast.Attribute):
            if node.attr in reg.forest_attr_names:
                return True
            key = self._pseudo_name(node)
            return key is not None and "forest" in self.kinds.get(key, set())
        return False

    @staticmethod
    def _pseudo_name(node: ast.AST) -> Optional[str]:
        """Key for tracking ``self.x``-style attribute targets."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            return f"{node.value.id}.{node.attr}"
        return None

    def _infer_kinds(self, node: ast.AST) -> Set[str]:
        """Value-kind inference for assignments (set/comm/forest)."""
        reg = self.registry
        if isinstance(node, (ast.Set, ast.SetComp)):
            return {"set"}
        if isinstance(node, ast.Name):
            kinds = set(self.kinds.get(node.id, set()))
            if self._name_matches(node.id, reg.comm_name_suffixes):
                kinds.add("comm")
            if self._name_matches(node.id, reg.forest_name_suffixes):
                kinds.add("forest")
            return kinds
        if isinstance(node, ast.Attribute):
            if node.attr in reg.comm_attr_names:
                return {"comm"}
            if node.attr in reg.forest_attr_names:
                return {"forest"}
            return set()
        if isinstance(node, ast.IfExp):
            return self._infer_kinds(node.body) | self._infer_kinds(node.orelse)
        if isinstance(node, ast.Call):
            dotted = dotted_path(node.func, self.index) or ""
            last = dotted.split(".")[-1]
            if last in ("set", "frozenset"):
                return {"set"}
            if dotted.endswith("Forest.new") or last == "Forest":
                return {"forest"}
            if last in reg.layer_class_order or last == "wrap_comm":
                return {"comm"}
        return set()

    # Statement execution --------------------------------------------------

    def _exec_block(self, stmts: List[ast.stmt]) -> None:
        """Execute a statement list in order."""
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        """Execute one statement."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analyzed as their own functions by the engine
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            kinds = self._infer_kinds(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint, kinds)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(
                    stmt.target,
                    self._eval(stmt.value),
                    self._infer_kinds(stmt.value),
                )
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.taints[stmt.target.id] = (
                    self.taints.get(stmt.target.id, EMPTY) | taint
                )
            else:
                key = self._pseudo_name(stmt.target)
                if key:
                    self.taints[key] = self.taints.get(key, EMPTY) | taint
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            taint = self._eval(stmt.value) if stmt.value is not None else EMPTY
            self.return_taint = self.return_taint | taint
            self._record_exit(stmt, "return")
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            ctl = self._control_taint()
            if ctl:
                # A rank-dependent break/continue makes the enclosing
                # loop's trip count rank-dependent.
                for frame in reversed(self.ctrl):
                    if frame.kind == "loop":
                        frame.taint = frame.taint | ctl
                        frame.detail = frame.detail or "trip count (via break)"
                        break
        elif isinstance(stmt, ast.If):
            self._branch(stmt.test, stmt.body, stmt.orelse, "branch predicate")
        elif isinstance(stmt, ast.While):
            taint = self._eval(stmt.test)
            frame = _Frame("loop", taint, stmt.lineno, "loop condition")
            self.ctrl.append(frame)
            self._exec_block(stmt.body)
            self._eval(stmt.test)
            self._exec_block(stmt.body)  # loop-carried taint
            self.ctrl.pop()
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._eval(stmt.iter)
            if "set" in self._infer_kinds(stmt.iter):
                taint = taint | _NONDET
            self._assign(stmt.target, taint, set())
            frame = _Frame("loop", self._eval(stmt.iter), stmt.lineno, "trip count")
            self.ctrl.append(frame)
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)  # loop-carried taint
            self.ctrl.pop()
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            swallowing = [
                h for h in stmt.handlers if not self._handler_reraises(h)
            ]
            if swallowing:
                kinds = ", ".join(
                    ast.unparse(h.type) if h.type is not None else "Exception"
                    for h in swallowing
                )
                self.ctrl.append(
                    _Frame("try-swallow", EMPTY, stmt.lineno, f"except {kinds}")
                )
                self._exec_block(stmt.body)
                self.ctrl.pop()
            else:
                self._exec_block(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.taints[handler.name] = EMPTY
                self.ctrl.append(
                    _Frame(
                        "except",
                        EMPTY,
                        handler.lineno,
                        ast.unparse(handler.type) if handler.type else "Exception",
                    )
                )
                self._exec_block(handler.body)
                self.ctrl.pop()
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(
                        item.optional_vars,
                        taint,
                        self._infer_kinds(item.context_expr),
                    )
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
            # Rank-dependent raises abort the machine attributably (and
            # swallowed ones are SPMD003); not an early-exit finding.
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                self._eval(t)
        elif isinstance(stmt, ast.Match):
            taint = self._eval(stmt.subject)
            for case in stmt.cases:
                frame = _Frame("branch", taint, case.pattern.lineno, "match subject")
                self.ctrl.append(frame)
                if case.guard is not None:
                    frame.taint = frame.taint | self._eval(case.guard)
                self._exec_block(case.body)
                self.ctrl.pop()
        # Import/Pass/Global/Nonlocal: nothing to do.

    def _branch(
        self,
        test: ast.expr,
        body: List[ast.stmt],
        orelse: List[ast.stmt],
        detail: str,
    ) -> None:
        """Visit an if/else with a control frame derived from the test."""
        taint = self._eval(test)
        self.ctrl.append(_Frame("branch", taint, test.lineno, detail))
        self._exec_block(body)
        self._exec_block(orelse)
        self.ctrl.pop()

    def _record_exit(self, stmt: ast.stmt, kind: str) -> None:
        """Note a function exit occurring under tainted control."""
        ctl = self._control_taint()
        if ctl:
            self.tainted_exits.append((stmt.lineno, kind, ctl))

    def _control_taint(self) -> Taint:
        """Union of taints of all enclosing branch/loop frames."""
        taint: Taint = EMPTY
        for frame in self.ctrl:
            if frame.kind in ("branch", "loop"):
                taint = taint | frame.taint
        return taint

    @staticmethod
    def _handler_reraises(handler: ast.ExceptHandler) -> bool:
        """Whether an except handler (transitively) re-raises."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        return False

    def _assign(self, target: ast.expr, taint: Taint, kinds: Set[str]) -> None:
        """Bind taint (and kind) to an assignment target."""
        if isinstance(target, ast.Name):
            self.taints[target.id] = taint
            if kinds:
                self.kinds[target.id] = kinds
            else:
                self.kinds.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                self._assign(elt, taint, kinds)
        elif isinstance(target, ast.Attribute):
            key = self._pseudo_name(target)
            if key is not None:
                self.taints[key] = taint
                if kinds:
                    self.kinds[key] = kinds
        elif isinstance(target, ast.Subscript):
            # Writing into a container mixes the taint in.
            base = target.value
            if isinstance(base, ast.Name):
                self.taints[base.id] = self.taints.get(base.id, EMPTY) | taint

    # Expression evaluation ------------------------------------------------

    def _eval(self, node: Optional[ast.AST]) -> Taint:
        """Taint of one expression (emitting findings along the way)."""
        if node is None or isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self.taints.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            taint = self._eval(node.test)
            self.ctrl.append(
                _Frame("branch", taint, node.lineno, "conditional expression")
            )
            result = self._eval(node.body) | self._eval(node.orelse)
            self.ctrl.pop()
            return result | taint
        if isinstance(node, ast.BoolOp):
            # Short-circuiting: later operands are control-dependent on
            # earlier ones.
            taint = self._eval(node.values[0])
            for value in node.values[1:]:
                self.ctrl.append(
                    _Frame("branch", taint, node.lineno, "short-circuit operand")
                )
                taint = taint | self._eval(value)
                self.ctrl.pop()
            return taint
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left)
            for comp in node.comparators:
                taint = taint | self._eval(comp)
            return taint
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.Slice):
            return (
                self._eval(node.lower)
                | self._eval(node.upper)
                | self._eval(node.step)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint = EMPTY
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                taint = taint | self._eval(elt)
            return taint
        if isinstance(node, ast.Dict):
            taint = EMPTY
            for k, v in zip(node.keys, node.values):
                taint = taint | self._eval(k) | self._eval(v)
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node, [node.key, node.value])
        if isinstance(node, ast.JoinedStr):
            taint = EMPTY
            for value in node.values:
                taint = taint | self._eval(value)
            return taint
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._assign(node.target, taint, self._infer_kinds(node.value))
            return taint
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return EMPTY  # bodies are not analyzed (documented limitation)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        return EMPTY

    def _eval_attribute(self, node: ast.Attribute) -> Taint:
        """Attribute access: propagate base taint plus rank-local seeds."""
        reg = self.registry
        taint = self._eval(node.value)
        if node.attr in reg.rank_attrs:
            return taint | _RANK
        if node.attr in reg.forest_rank_local_attrs and self._is_forestlike(
            node.value
        ):
            return taint | _RANK
        key = self._pseudo_name(node)
        if key is not None:
            taint = taint | self.taints.get(key, EMPTY)
        return taint

    def _eval_comprehension(
        self, node: ast.AST, elements: List[ast.expr]
    ) -> Taint:
        """Comprehensions: bind targets, honor tainted iters as loops."""
        taint: Taint = EMPTY
        frames = 0
        for gen in node.generators:  # type: ignore[attr-defined]
            it = self._eval(gen.iter)
            if "set" in self._infer_kinds(gen.iter):
                it = it | _NONDET
            self._assign(gen.target, it, set())
            cond = EMPTY
            for if_ in gen.ifs:
                cond = cond | self._eval(if_)
            self.ctrl.append(
                _Frame(
                    "loop",
                    self._eval(gen.iter) | cond,
                    node.lineno,
                    "comprehension iterable",
                )
            )
            frames += 1
            taint = taint | it | cond
        for elt in elements:
            taint = taint | self._eval(elt)
        for _ in range(frames):
            self.ctrl.pop()
        return taint

    # Call evaluation ------------------------------------------------------

    def _eval_args(self, node: ast.Call) -> Taint:
        """Union taint of every argument of a call."""
        taint: Taint = EMPTY
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                arg = arg.value
            taint = taint | self._eval(arg)
        for kw in node.keywords:
            taint = taint | self._eval(kw.value)
        return taint

    def _eval_call(self, node: ast.Call) -> Taint:
        """Classify and evaluate one call expression."""
        reg = self.registry
        func = node.func
        dotted = dotted_path(func, self.index) or ""
        last = dotted.split(".")[-1] if dotted else ""

        # Comm / Forest / auxiliary collective methods -------------------
        if isinstance(func, ast.Attribute):
            attr = func.attr
            recv = func.value
            if attr in reg.comm_collectives and self._is_commlike(recv):
                self._eval(recv)
                self._note_collective(node, f"{attr}()")
                self._check_payload(node, f"{attr}()")
                self._eval_args(node)
                return (
                    EMPTY if attr in reg.uniform_comm_collectives else _RANK
                )
            if attr in reg.forest_collectives and (
                self._is_forestlike(recv) or dotted.endswith("Forest.new")
            ):
                self._eval(recv)
                self._note_collective(node, f"Forest.{attr}()")
                self._check_payload(node, f"Forest.{attr}()")
                self._eval_args(node)
                return (
                    EMPTY
                    if attr in reg.uniform_forest_collectives
                    else _RANK
                )
            if attr in reg.collective_methods:
                self._eval(recv)
                self._note_collective(node, f"{attr}()")
                self._check_payload(node, f"{attr}()")
                self._eval_args(node)
                spec = reg.collective_methods[attr]
                return EMPTY if spec.uniform_result else _RANK

        # Registry-listed module-level collective functions --------------
        spec = reg.collective_functions.get(dotted)
        if spec is not None:
            self._note_collective(node, f"{spec.name}()")
            self._check_payload(node, f"{spec.name}()")
            self._eval_args(node)
            return EMPTY if spec.uniform_result else _RANK

        # SPMD006: hand-built layer stacks -------------------------------
        if last in reg.layer_class_order and not reg.is_layer_module(self.path):
            msg = (
                f"layer comm {last} constructed directly; use "
                "RunConfig(layers=[...]) or wrap_comm() so the canonical "
                "faults->sanitize->watchdog->trace order holds"
            )
            if node.args:
                inner = node.args[0]
                if isinstance(inner, ast.Call):
                    inner_dotted = dotted_path(inner.func, self.index) or ""
                    inner_last = inner_dotted.split(".")[-1]
                    if inner_last in reg.layer_class_order:
                        outer_i = reg.layer_class_order.index(last)
                        inner_i = reg.layer_class_order.index(inner_last)
                        if inner_i > outer_i:
                            msg = (
                                f"layer comms nested out of order: {last} "
                                f"wraps {inner_last}, but the canonical "
                                "order is faults->sanitize->watchdog->"
                                "trace; use wrap_comm()"
                            )
            self._finding("SPMD006", node.lineno, node.col_offset, msg)
            self._eval_args(node)
            return EMPTY

        # Nondeterminism seeds -------------------------------------------
        if dotted in reg.perprocess_calls:
            self._eval_args(node)
            return _BOTH
        if dotted in reg.nondet_calls:
            self._eval_args(node)
            return _NONDET
        rng = self._classify_rng(dotted, node)
        if rng is not None:
            self._eval_args(node)
            return rng

        # sorted() restores a deterministic order ------------------------
        if dotted == "sorted":
            taint = self._eval_args(node)
            return taint - _NONDET

        # Local functions via their summaries ----------------------------
        info = self._resolve_local(func)
        if info is not None and info is not self.info:
            s = info.summary
            arg_taint = self._eval_args(node)
            recv_taint = (
                self._eval(func.value)
                if isinstance(func, ast.Attribute)
                else EMPTY
            )
            if s.performs_collective:
                via = f" (via {s.collective_via})" if s.collective_via else ""
                self._note_collective(
                    node, f"{info.qualname}(){via}"
                )
                self._check_payload(node, f"{info.qualname}()")
            taint = s.intrinsic_taint
            if s.propagates:
                taint = taint | arg_taint | recv_taint
            return taint

        # Unknown call: propagate receiver and argument taint ------------
        recv_taint = (
            self._eval(func.value) if isinstance(func, ast.Attribute) else EMPTY
        )
        arg_taint = self._eval_args(node)
        if last in ("list", "tuple") and node.args:
            first = node.args[0]
            if "set" in self._infer_kinds(first):
                arg_taint = arg_taint | _NONDET
        return recv_taint | arg_taint

    def _classify_rng(self, dotted: str, node: ast.Call) -> Optional[Taint]:
        """Detect unseeded RNG draws/constructions; record SPMD007 sites."""
        reg = self.registry
        if not dotted:
            return None
        module, _, name = dotted.rpartition(".")
        if module in reg.rng_modules:
            if name in reg.rng_seeding_names:
                if not node.args and not node.keywords and name != "seed":
                    self.rng_sites.append((node, f"{dotted}()"))
                    return _NONDET
                return EMPTY
            self.rng_sites.append((node, f"{dotted}()"))
            return _NONDET
        return None

    def _resolve_local(self, func: ast.expr) -> Optional[FunctionInfo]:
        """Resolve a call target to a function defined in this module."""
        if isinstance(func, ast.Name):
            return self.index.functions.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base in ("self", "cls"):
                cls = self.info.class_name if self.info else None
                if cls is not None:
                    info = self.index.functions.get(f"{cls}.{func.attr}")
                    if info is not None:
                        return info
                return self.index.functions.get(func.attr)
            if base in self.index.classes:
                return self.index.functions.get(f"{base}.{func.attr}")
        return None
