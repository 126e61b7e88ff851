"""``spmdlint`` — static SPMD-uniformity analysis for rank programs.

The runtime collective sanitizer (:mod:`repro.parallel.sanitizer`)
catches a divergent collective sequence *on the (P, seed, path)
actually executed*; this package catches the same bug class before a
program runs, for every path.  It seeds rank-taint at ``comm.rank``
and per-rank payloads, propagates it through assignments, calls, and
comprehensions, and reports any collective call site (classified
through the shared registry in :mod:`repro.parallel.collectives`) that
is control-dependent on tainted state — plus satellite rules for
nondeterministic payloads, swallowed exceptions around collectives,
hand-built layer stacks, and unseeded RNG.

Entry points: :func:`~repro.analysis.engine.lint_paths` /
:func:`~repro.analysis.engine.lint_source` (library), and
``tools/spmd_lint.py`` (CLI, baseline handling, CI exit codes).
"""

from repro.analysis.engine import lint_file, lint_paths, lint_source
from repro.analysis.registry import DEFAULT_REGISTRY, LintRegistry
from repro.analysis.report import Baseline, Finding, render_json, render_text
from repro.analysis.rules import RULES, Rule

__all__ = [
    "lint_file",
    "lint_paths",
    "lint_source",
    "DEFAULT_REGISTRY",
    "LintRegistry",
    "Baseline",
    "Finding",
    "render_json",
    "render_text",
    "RULES",
    "Rule",
]
