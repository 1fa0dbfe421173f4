"""repro.lint — AST-based invariant checker for the repro codebase.

The pipeline's correctness contracts (bitwise-deterministic sweeps,
shared-memory segment ownership, read-only kernel arguments, a checked-in
metric-name registry) were convention-only: documented in DESIGN.md,
enforced by review.  This package turns them into machine-checked rules
over the stdlib :mod:`ast` — no new runtime dependencies — run in CI as a
gating job and locally via ``repro lint``.  Each contract has one rule.

Rules marked *(project)* are whole-program: they run over the
:mod:`~repro.lint.graph` model (module graph, call graph, reachability
universes) built from every linted file, instead of one file at a time.

========  ==================  ==================================================
code      name                invariant
========  ==================  ==================================================
RL001     determinism         *(project)* no wall-clock or global-RNG calls
                              reachable from the pool workers' entry points or
                              from kernel functions
RL003     kernel-purity       *(project)* kernel-reachable functions never
                              mutate parameter arrays (unless provably
                              caller-owned scratch), import multiprocessing,
                              or do I/O
RL004     metric-registry     *(project)* literal metric names and event kinds
                              are declared in their package's
                              ``obs/metric_names.py`` (else the installed
                              one); every declaration is emitted somewhere
RL005     float-equality      no ``==``/``!=`` against float expressions
                              (asserts exempt); use the blessed stats helpers
RL006     exception-hygiene   no bare except; interrupt-catching handlers must
                              re-raise
RL008     pool-ownership      *(project)* ``ProcessPoolExecutor``/
                              ``SharedMemory`` are constructed only in
                              ``core/engine.py`` and ``core/shm.py``, where
                              created segments are with-managed,
                              finally-unlinked, or transferred to a class that
                              unlinks
RL011     dispatch-hygiene    *(project)* methods ``SweepEngine.dispatch``
                              reaches never block unboundedly or perform I/O
========  ==================  ==================================================

Each file is read, parsed and walked once (:mod:`repro.lint.index`);
nothing is cached between runs.

Suppress a single statement with
``# repro-lint: disable=RL005 — justification`` on any of its lines;
the justification text is required by review policy (see DESIGN.md).
A directive naming an unknown code is itself reported as ``RL000``.
"""

from .engine import (
    PARSE_ERROR_RULE,
    LintPathError,
    LintReport,
    iter_python_files,
    lint_project,
    load_source_file,
    render_sarif,
    render_text,
)
from .findings import Finding, SourceFile
from .graph import Project, extract_facts, module_name_for_path
from .rules import (
    ALL_RULES,
    EmptySelectionError,
    ProjectRule,
    Rule,
    UnknownRuleError,
    get_rules,
)

__all__ = [
    "ALL_RULES",
    "EmptySelectionError",
    "Finding",
    "LintPathError",
    "LintReport",
    "PARSE_ERROR_RULE",
    "Project",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "UnknownRuleError",
    "extract_facts",
    "get_rules",
    "iter_python_files",
    "lint_project",
    "load_source_file",
    "module_name_for_path",
    "render_sarif",
    "render_text",
]
