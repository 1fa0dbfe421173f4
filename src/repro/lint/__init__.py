"""repro.lint — AST-based invariant checker for the repro codebase.

The pipeline's correctness contracts (bitwise-deterministic sweeps,
shared-memory segment ownership, read-only kernel arguments, a checked-in
metric-name registry) were convention-only: documented in DESIGN.md,
enforced by review.  This package turns them into machine-checked rules
over the stdlib :mod:`ast` — no new runtime dependencies — run in CI as a
gating job and locally via ``repro lint`` or ``python -m repro.lint``.

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
RL004     metric-names        literal metric names must be declared in
                              ``repro/obs/metric_names.py``
RL005     float-equality      no ``==``/``!=`` against float expressions
                              (asserts exempt); use the blessed stats helpers
RL006     exception-hygiene   no bare except; interrupt-catching handlers must
                              re-raise
RL007     event-names         literal event kinds emitted on a SweepEvents bus
                              must be declared in the ``EVENTS`` registry in
                              ``repro/obs/metric_names.py``
RL008     pool-confinement    ``ProcessPoolExecutor``/``SharedMemory`` are
                              constructed only in ``core/engine.py`` and
                              ``core/shm.py``
RL009     metric-census       *(project)* every registry metric/event name is
                              emitted somewhere; every emission is declared
RL010     shm-ownership       *(project)* segments created in the owner
                              modules are with-managed, finally-unlinked, or
                              provably transferred to a class that unlinks
RL011     dispatch-hygiene    ``SweepEngine``'s dispatch loop never blocks
                              unboundedly or performs I/O
========  ==================  ==================================================

Each file is read, parsed and walked once (:mod:`repro.lint.index`);
nothing is cached between runs.

Suppress a single statement with
``# repro-lint: disable=RL005 — justification`` on any of its lines;
the justification text is required by review policy (see DESIGN.md).
"""

from .engine import (
    JSON_FORMAT_VERSION,
    PARSE_ERROR_RULE,
    LintPathError,
    LintReport,
    check_file,
    iter_python_files,
    lint_project,
    load_source_file,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)
from .findings import Finding, Severity, SourceFile
from .graph import Project, extract_facts, module_name_for_path
from .rules import (
    ALL_RULES,
    EmptySelectionError,
    ProjectRule,
    Rule,
    UnknownRuleError,
    get_rules,
)
from .suppress import parse_directive, suppressed_lines

__all__ = [
    "ALL_RULES",
    "EmptySelectionError",
    "Finding",
    "JSON_FORMAT_VERSION",
    "LintPathError",
    "LintReport",
    "PARSE_ERROR_RULE",
    "Project",
    "ProjectRule",
    "Rule",
    "Severity",
    "SourceFile",
    "UnknownRuleError",
    "check_file",
    "extract_facts",
    "get_rules",
    "iter_python_files",
    "lint_project",
    "load_source_file",
    "module_name_for_path",
    "parse_directive",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "suppressed_lines",
]
