"""The static analyzer's view of the collective registry.

:mod:`repro.parallel.collectives` is the single source of truth for
*what is collective*; this module adds the purely syntactic knowledge
the AST passes need on top of it: how to recognize comm-like and
forest-like expressions, which attribute reads seed rank-taint, which
calls are nondeterministic, and which classes form the layer stack.
Everything is plain data so the corpus tests can construct reduced
registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.parallel.collectives import (
    COLLECTIVE_FUNCTIONS,
    COLLECTIVE_METHODS,
    COMM_COLLECTIVE_NAMES,
    FOREST_COLLECTIVE_NAMES,
    UNIFORM_RESULT_OPS,
    CollectiveSpec,
)

__all__ = ["LintRegistry", "DEFAULT_REGISTRY"]


@dataclass(frozen=True)
class LintRegistry:
    """All name-level knowledge driving one lint run."""

    # What is collective (from repro.parallel.collectives) -----------------
    comm_collectives: FrozenSet[str] = COMM_COLLECTIVE_NAMES
    uniform_comm_collectives: FrozenSet[str] = UNIFORM_RESULT_OPS
    forest_collectives: FrozenSet[str] = FOREST_COLLECTIVE_NAMES
    #: dotted path -> spec; call sites resolve through the import table.
    collective_functions: Dict[str, CollectiveSpec] = field(
        default_factory=lambda: dict(COLLECTIVE_FUNCTIONS)
    )
    #: distinctive collective method names on auxiliary objects.
    collective_methods: Dict[str, CollectiveSpec] = field(
        default_factory=lambda: dict(COLLECTIVE_METHODS)
    )
    #: forest collective methods with a uniform result (taint-laundering).
    uniform_forest_collectives: FrozenSet[str] = frozenset(
        {"validate", "levels_histogram", "checksum"}
    )

    # Receiver recognition -------------------------------------------------
    #: a Name matches one of these exact ids, or ends with the suffix.
    comm_name_suffixes: Tuple[str, ...] = ("comm",)
    forest_name_suffixes: Tuple[str, ...] = ("forest",)
    #: Attribute reads (x.<attr>) treated as comm-like / forest-like.
    comm_attr_names: FrozenSet[str] = frozenset({"comm"})
    forest_attr_names: FrozenSet[str] = frozenset({"forest"})
    #: Annotations marking a parameter comm-like / forest-like.
    comm_annotations: FrozenSet[str] = frozenset({"Comm"})
    forest_annotations: FrozenSet[str] = frozenset({"Forest"})
    #: Calls whose result is forest-like (``Forest.new(...)``, ``restore``).
    forest_constructors: FrozenSet[str] = frozenset({"Forest", "Forest.new"})

    # Taint seeds ----------------------------------------------------------
    #: x.<attr> on anything -> RANK taint (per-rank identity/data; the
    #: element counts of a rank's mesh are as local as its leaf array).
    rank_attrs: FrozenSet[str] = frozenset({"rank", "nelem_local", "nelem_ghost"})
    #: x.<attr> on a forest-like receiver -> RANK taint (local leaf data).
    forest_rank_local_attrs: FrozenSet[str] = frozenset(
        {"local", "local_count"}
    )
    #: bare parameter names seeded with RANK taint.
    rank_param_names: FrozenSet[str] = frozenset({"rank"})
    #: dotted calls yielding per-process values -> RANK and NONDET taint.
    perprocess_calls: FrozenSet[str] = frozenset(
        {"os.getpid", "threading.get_ident", "id"}
    )
    #: dotted calls yielding run-to-run nondeterminism -> NONDET taint.
    nondet_calls: FrozenSet[str] = frozenset(
        {
            "time.time",
            "time.perf_counter",
            "time.monotonic",
            "time.time_ns",
            "os.listdir",
            "os.scandir",
            "glob.glob",
            "uuid.uuid4",
        }
    )
    #: unseeded module-level RNG draws (module path -> function names).
    #: ``seed``/``default_rng``/``Random``/``RandomState`` are handled
    #: separately (seeding is fine; zero-arg construction is not).
    rng_modules: FrozenSet[str] = frozenset(
        {"random", "numpy.random", "np.random"}
    )
    rng_seeding_names: FrozenSet[str] = frozenset(
        {"seed", "default_rng", "Random", "RandomState", "SeedSequence"}
    )

    # Rule SPMD006 ---------------------------------------------------------
    #: layer decorator classes, innermost first (the canonical order).
    layer_class_order: Tuple[str, ...] = (
        "FaultyComm",
        "SanitizedComm",
        "WatchdogComm",
        "TracingComm",
    )
    #: path suffixes where direct layer construction is the implementation.
    layer_allowed_modules: Tuple[str, ...] = (
        "repro/parallel/layers.py",
        "repro/parallel/faults.py",
        "repro/parallel/sanitizer.py",
        "repro/parallel/watchdog.py",
        "repro/parallel/process_backend.py",
        "repro/trace/comm.py",
    )

    def is_layer_module(self, path: str) -> bool:
        """Whether ``path`` may construct layer comms directly."""
        norm = path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.layer_allowed_modules)


#: The registry a plain lint run uses.
DEFAULT_REGISTRY = LintRegistry()
