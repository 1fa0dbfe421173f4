"""Command-line front end for the invariant checker.

Two entry points share this module:

* ``repro lint ...`` — the subcommand wired into :mod:`repro.cli` via
  :func:`add_lint_arguments` / :func:`run_from_args`;
* ``python -m repro.lint ...`` — the standalone module runner via
  :func:`run`.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error
(unknown rule code, empty rule selection, a path that does not exist,
no ``.py`` file matched).  Each of those would otherwise "pass" a run
that checked nothing, so each exits 2 loudly instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .engine import LintPathError, lint_project, render_json, render_sarif, render_text
from .rules import ALL_RULES, EmptySelectionError, UnknownRuleError

_DEFAULT_PATHS = ["src"]


def _split_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--select RL001,RL003`` options.

    ``None`` means the option was not passed at all.  An option that
    *was* passed but named no codes (``--select ,``) flattens to the
    empty list, which :func:`~repro.lint.rules.get_rules` rejects — it
    must not silently mean "all rules".
    """
    if not values:
        return None
    codes: List[str] = []
    for value in values:
        codes.extend(code for code in value.split(",") if code.strip())
    return codes


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared by both entry points)."""
    rule_summary = "; ".join(f"{cls.code} {cls.name}" for cls in ALL_RULES)
    parser.add_argument(
        "paths",
        nargs="*",
        default=_DEFAULT_PATHS,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help=f"only run these rules (repeat or comma-separate; {rule_summary})",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rules (repeat or comma-separate)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; the process exit code."""
    try:
        report = lint_project(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except (UnknownRuleError, EmptySelectionError, LintPathError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    findings = report.findings
    if args.output_format == "json":
        print(render_json(findings, report.stats))
    elif args.output_format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
