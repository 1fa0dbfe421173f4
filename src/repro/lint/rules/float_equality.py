"""RL005 — float equality: ``==``/``!=`` against float expressions.

Exact float comparison is *sometimes* exactly what this codebase means —
the battery kernels rely on energy being pinned at *bitwise* capacity to
fast-forward rail stretches, and the degenerate-case guards
(``capacity == 0.0``) are contracts, not sloppiness.  But an unreviewed
``==`` between floats is indistinguishable from a tolerance bug, so the
blessed spellings are :func:`repro.timeseries.stats.is_exact_zero` /
:func:`repro.timeseries.stats.bitwise_equal` (whose names carry the
intent) or ``math.isinf``/``math.isnan`` for the special values — and the
rare raw ``==`` that must stay (hot loops, modules below ``stats`` in the
import graph) carries a ``# repro-lint: disable=RL005`` with its why.

Static analysis cannot type arbitrary expressions, so the rule flags a
comparison when either side is *literally* float-shaped: a float
constant (``x == 0.0``), a negated float constant (``x != -1.5``), or a
``float(...)`` call (``hours == float("inf")``).  Name-vs-name
comparisons pass; the blessed helpers exist so reviewers can hold that
line in review.

Comparisons inside ``assert`` statements are exempt: a test asserting
``result == 4.0`` *wants* bitwise equality — an unintended ULP drift is
exactly what the assertion exists to catch, and pytest's rewritten
report shows both values when it trips.  The tolerance-bug failure mode
this rule hunts (a branch silently not taken) cannot hide in an assert.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..findings import Finding, SourceFile
from .base import Rule, dotted_name


def _is_float_shaped(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_shaped(node.operand)
    if isinstance(node, ast.Call):
        return dotted_name(node.func) == "float"
    return False


class FloatEqualityRule(Rule):
    code = "RL005"
    name = "float-equality"
    description = (
        "no ==/!= against float expressions; use "
        "repro.timeseries.stats.is_exact_zero/bitwise_equal or math.isinf"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        index = file.index
        asserted: Set[ast.AST] = {
            node
            for check in index.of(ast.Assert)
            for node in index.within(check, ast.Compare)
        }
        for node in index.of(ast.Compare):
            if node in asserted:
                continue  # asserts want bitwise equality — see docstring
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(_is_float_shaped(operand) for operand in operands):
                yield self.finding(
                    file,
                    node,
                    "float equality comparison; spell the intent with "
                    "repro.timeseries.stats.is_exact_zero/bitwise_equal "
                    "(exact bitwise checks) or math.isinf/math.isnan "
                    "(special values)",
                )
