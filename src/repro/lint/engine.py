"""The lint engine: discover, parse, run rules in two phases, render.

The engine runs in two phases over the discovered files:

* **file phase** — each file is read and parsed once into a
  :class:`~repro.lint.findings.SourceFile`, whose node index is built in
  one walk (:mod:`repro.lint.index`).  Every selected *file* rule reads
  that index, and so does the :mod:`~repro.lint.graph` fact extractor
  when a project rule is selected.  Only a file containing
  ``repro-lint`` is tokenized for suppression directives.
* **project phase** — the per-file facts assemble into a
  :class:`~repro.lint.graph.Project` and the *project* rules (RL001,
  RL003, RL009, RL010) run over it.

Nothing is cached between runs: a cold run over ``src/ benchmarks/
tests/ examples/`` takes about 2 s on a 2-vCPU host.

Files that fail to parse are themselves findings (rule ``RL000``,
"parse-error") rather than crashes — a syntax error in one module must
not hide violations in the other three hundred.  A directory containing
a ``.repro-lint-ignore`` marker is pruned from discovery (fixture trees
full of deliberate violations live under one); the marker is ignored on
an explicitly-passed root — asking for a directory by name means it.
A path that does not exist, or a run that matches no ``.py`` file, is a
:class:`LintPathError`: a typo'd path must not pass as a clean tree.
"""

from __future__ import annotations

import ast
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from .findings import Finding, SourceFile
from .graph import Project, extract_facts
from .rules import ALL_RULES, Rule, get_rules
from .suppress import is_suppressed

#: Pseudo-rule code attributed to files the engine cannot parse.
#: Always reported, whatever ``--select`` says: an unparseable file
#: means every other verdict about it is fiction.
PARSE_ERROR_RULE = "RL000"

#: Version of the ``--format json`` document shape.
#: 3: ``stats`` holds only the file count.
JSON_FORMAT_VERSION = 3

#: Marker file pruning a directory subtree from discovery.
IGNORE_MARKER = ".repro-lint-ignore"

_SKIP_DIRS = frozenset({"__pycache__"})


class LintPathError(ValueError):
    """A lint path does not exist, or the paths match no ``.py`` file.

    Linting nothing and exiting 0 would let a typo'd CI path pass as a
    clean tree — the silent pass
    :class:`~repro.lint.rules.EmptySelectionError` prevents for rule
    selections.  The CLI maps it to exit 2.
    """


def iter_python_files(paths: Iterable[str]) -> Iterator[pathlib.Path]:
    """Every ``.py`` file under ``paths``, sorted, each yielded once.

    Directories carrying an :data:`IGNORE_MARKER` are pruned, except an
    explicitly-passed root itself (linting a fixture tree on purpose
    must work; tripping over it while linting ``tests/`` must not).
    """
    seen = set()
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_file():
            candidates = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(
                p
                for p in root.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in p.parts
                )
                and not _under_marker(p, root)
            )
        for path in candidates:
            key = str(path)
            if key not in seen:
                seen.add(key)
                yield path


def _under_marker(path: pathlib.Path, root: pathlib.Path) -> bool:
    directory = path.parent
    while directory != root and directory != directory.parent:
        if (directory / IGNORE_MARKER).is_file():
            return True
        directory = directory.parent
    return False  # the root's own marker is ignored: it was asked for


def load_source_file(path: pathlib.Path) -> "SourceFile | Finding":
    """Parse ``path`` into a :class:`SourceFile`, or a parse-error finding."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        return Finding(
            path=str(path),
            line=int(line),
            col=int(col),
            rule=PARSE_ERROR_RULE,
            message=f"cannot parse file: {exc}",
        )
    return SourceFile(path=str(path), source=source, tree=tree)


def check_file(file: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """All unsuppressed findings for one parsed file."""
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(file):
            continue
        for finding in rule.check(file):
            if not is_suppressed(file.suppressions, finding.line, finding.rule):
                findings.append(finding)
    return findings


@dataclass
class LintReport:
    """Findings plus the counters of one run (``{"files": N}``)."""

    findings: List[Finding]
    stats: Dict[str, int] = field(default_factory=dict)


def lint_project(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint ``paths`` through both phases; findings plus run stats.

    Raises :class:`LintPathError` when a path does not exist or no
    ``.py`` file matches.
    """
    selected_rules = get_rules(select=select, ignore=ignore)
    file_rules = [r for r in selected_rules if r.phase == "file"]
    project_rules = [r for r in selected_rules if r.phase == "project"]
    missing = [path for path in paths if not pathlib.Path(path).exists()]
    if missing:
        raise LintPathError(f"no such file or directory: {', '.join(missing)}")

    findings: List[Finding] = []
    facts_by_path: Dict[str, Dict[str, Any]] = {}
    suppressions_by_path = {}
    files = 0
    for path in iter_python_files(paths):
        files += 1
        loaded = load_source_file(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        findings.extend(check_file(loaded, file_rules))
        if project_rules:
            facts_by_path[loaded.path] = extract_facts(loaded)
            suppressions_by_path[loaded.path] = loaded.suppressions
    if not files:
        raise LintPathError(
            f"no Python file under {', '.join(paths)}: nothing would be checked"
        )

    project = Project(facts_by_path)
    for rule in project_rules:
        for finding in rule.check_project(project):
            suppressions = suppressions_by_path.get(finding.path, {})
            if not is_suppressed(suppressions, finding.line, finding.rule):
                findings.append(finding)
    return LintReport(findings=sorted(findings), stats={"files": files})


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` with the selected rules; sorted findings."""
    return lint_project(paths, select=select, ignore=ignore).findings


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one ``path:line:col RULE message`` per line."""
    lines = [finding.render() for finding in findings]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], stats: Optional[Dict[str, int]] = None
) -> str:
    """Machine-readable report for CI: versioned JSON document."""
    document = {
        "version": JSON_FORMAT_VERSION,
        "count": len(findings),
        "findings": [finding.as_json() for finding in findings],
        "stats": dict(stats or {}),
    }
    return json.dumps(document, indent=2, sort_keys=True)


#: Pinned schema reference for the SARIF output.
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 document, the interchange format code hosts ingest."""
    rule_ids = sorted(
        {f.rule for f in findings}
        | {cls.code for cls in ALL_RULES}
        | {PARSE_ERROR_RULE}
    )
    descriptions = {cls.code: cls.description for cls in ALL_RULES}
    descriptions[PARSE_ERROR_RULE] = "file could not be parsed"
    sarif_rules = [
        {
            "id": code,
            "shortDescription": {"text": descriptions.get(code, code)},
        }
        for code in rule_ids
    ]
    index_of = {code: i for i, code in enumerate(rule_ids)}
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": index_of[finding.rule],
            "level": "error" if finding.severity == "error" else "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": pathlib.PurePath(finding.path).as_posix()
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": sarif_rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
