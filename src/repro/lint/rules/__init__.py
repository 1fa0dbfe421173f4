"""Rule registry: the checked-in table of invariant rules.

Each rule is registered once in :data:`ALL_RULES`; the engine and the CLI
resolve ``--select``/``--ignore`` through :func:`get_rules`.  Adding a
rule is: write the module, add the class here, add a fixture pair under
``tests/lint/fixtures/`` (see DESIGN.md "Static analysis").

Rules come in two phases (see :class:`~repro.lint.rules.base.Rule`):
*file* rules see one parsed file; *project* rules run over the
whole-program :class:`~repro.lint.graph.Project` model.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .base import ProjectRule, Rule
from .determinism import DeterminismRule
from .dispatch_hygiene import DispatchHygieneRule
from .exceptions import ExceptionHygieneRule
from .float_equality import FloatEqualityRule
from .kernel_purity import KernelPurityRule
from .metric_registry import MetricRegistryRule
from .pool_ownership import PoolOwnershipRule

#: Every rule the checker knows, in report order.
ALL_RULES: Tuple[type, ...] = (
    DeterminismRule,
    KernelPurityRule,
    MetricRegistryRule,
    FloatEqualityRule,
    ExceptionHygieneRule,
    PoolOwnershipRule,
    DispatchHygieneRule,
)


class UnknownRuleError(ValueError):
    """``--select``/``--ignore`` named a rule code that does not exist."""

    def __init__(self, code: str) -> None:
        known = ", ".join(cls.code for cls in ALL_RULES)
        super().__init__(f"unknown rule {code!r} (known rules: {known})")
        self.code = code


class EmptySelectionError(ValueError):
    """The select/ignore combination left zero rules to run.

    A lint invocation that checks nothing and exits 0 is the silent
    cousin of a typo'd rule code — the caller believes the tree was
    checked.  Raised loudly instead (the CLI maps it to exit 2).
    """

    def __init__(self) -> None:
        super().__init__(
            "rule selection is empty: --select/--ignore left no rules to "
            "run, so nothing would be checked"
        )


def _validate(codes: Optional[Iterable[str]]) -> Optional[List[str]]:
    if codes is None:
        return None
    known = {cls.code for cls in ALL_RULES}
    normalized = [code.strip().upper() for code in codes]
    for code in normalized:
        if code not in known:
            raise UnknownRuleError(code)
    return normalized


def get_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instantiate the rules to run.

    ``select`` restricts to the named codes; ``ignore`` removes codes
    from whatever ``select`` produced.  Unknown codes raise
    :class:`UnknownRuleError` — a typo'd ``--ignore RL0O1`` silently
    running every rule would be exactly the failure mode this linter
    exists to prevent.  A combination that leaves *zero* rules raises
    :class:`EmptySelectionError` for the same reason.
    """
    selected = _validate(select)
    ignored = set(_validate(ignore) or ())
    rules: List[Rule] = []
    for cls in ALL_RULES:
        if selected is not None and cls.code not in selected:
            continue
        if cls.code in ignored:
            continue
        rules.append(cls())
    if not rules:
        raise EmptySelectionError()
    return rules


__all__ = [
    "ALL_RULES",
    "EmptySelectionError",
    "ProjectRule",
    "Rule",
    "UnknownRuleError",
    "get_rules",
    "DeterminismRule",
    "KernelPurityRule",
    "MetricRegistryRule",
    "FloatEqualityRule",
    "ExceptionHygieneRule",
    "PoolOwnershipRule",
    "DispatchHygieneRule",
]
