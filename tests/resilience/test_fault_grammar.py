"""One fault grammar: ``FleetFaultPlan.from_spec`` against the two it replaced.

The oracle is a verbatim copy of the two earlier plans — a chunk-ordinal
plan (bare ``kill=0;delay=1:0.5;corrupt=2`` clauses, the same fault at
every site) and a site-scoped plan (``SITE:kind[=value][@rate]``) — kept
here as test-local classes.  Every fault spec written anywhere in
``tests/``, ``.github/``, README.md and DESIGN.md is parsed both ways;
the unified plan must pick the same action for sites UT and OR, chunk
ordinals 0–7 and attempts 0–2.  A spec mixing both forms is routed
clause by clause (bare ordinal clauses to the chunk oracle, site and
``seed`` clauses to the site oracle, ``attempts`` to both), and the site
oracle's action wins — the documented precedence.  Values the old
parsers let through but that never fire as written (NaN or infinite
delays, negative ordinals, values or rates on kinds that take none) are
now rejected.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from dataclasses import dataclass, field
from random import Random
from typing import Dict, FrozenSet, Mapping, Optional

import pytest

from repro.resilience import FaultAction, FaultKind, FleetFaultPlan

#: Every fault spec in tests/, .github/, README.md and DESIGN.md.
SPECS = (
    "",
    " kill=1 ; corrupt=2 ",
    "kill=0",
    "kill=0;corrupt=1",
    "kill=1;corrupt=0",
    "kill=0;attempts=99",
    "kill=0,2;delay=1:0.5;corrupt=3;attempts=2",
    "kill=0;delay=1:0.5;corrupt=2",
    "corrupt=0",
    "corrupt=2",
    "corrupt=1,3",
    "corrupt=1;kill=2",
    "delay=4",
    "delay=0:3.0",
    "kill=0;corrupt=1;UT:delay=0.1",
    "UT:kill",
    "UT:kill@0.5",
    "UT:kill@0.5;UT:corrupt@0.1",
    "UT:kill@1.0;OR:shm;attempts=1",
    "OR:shm",
    "OR:shm;UT:kill@0.5",
    "UT:kill@0.25;OR:delay=2.0@0.5;TX:shm;attempts=1",
    "UT:kill@0.25;OR:delay=2.0@0.5;NC:corrupt;TX:shm;attempts=2;seed=7",
    "UT:kill@0.5;OR:shm;attempts=1;seed=7",
    "ZZ:kill",
    "ut:kill",
    # Malformed in every grammar.
    "explode=1",
    "explode=7",
    "kill",
    "kill=x",
    "delay=1:abc",
    "attempts=maybe",
    "attempts=x",
    "UT:explode",
    "bogus=3",
    ":kill",
    "UT:kill@2.0",
    # Accepted before, rejected now.
    "delay=0:nan",
    "delay=0:inf",
    "kill=-1",
    "UT:delay=nan",
    "UT:kill=3",
    "UT:shm=1",
    "UT:shm@0.5",
)

NEWLY_REJECTED = frozenset(
    {
        "delay=0:nan",
        "delay=0:inf",
        "kill=-1",
        "UT:delay=nan",
        "UT:kill=3",
        "UT:shm=1",
        "UT:shm@0.5",
    }
)

_REPO = pathlib.Path(__file__).resolve().parents[2]
_SELF = pathlib.Path(__file__).name
_LITERAL = re.compile(
    r"""(?:--fault-plan"?,?\s*|from_spec\()(['"])([^'"]*)\1"""
)


# --- Oracle: verbatim copies of the two earlier plans ----------------------


@dataclass(frozen=True)
class ChunkFaultPlan:
    kill_chunks: FrozenSet[int] = frozenset()
    delay_chunks: Mapping[int, float] = field(default_factory=dict)
    corrupt_chunks: FrozenSet[int] = frozenset()
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_faulted_attempts < 1:
            raise ValueError(
                f"max_faulted_attempts must be >= 1, got {self.max_faulted_attempts}"
            )
        for ordinal, delay in self.delay_chunks.items():
            if delay < 0:
                raise ValueError(
                    f"delay for chunk {ordinal} must be >= 0, got {delay}"
                )

    def action_for(self, chunk_ordinal: int, attempt: int) -> Optional[FaultAction]:
        if attempt >= self.max_faulted_attempts:
            return None
        if chunk_ordinal in self.kill_chunks:
            return FaultAction(FaultKind.KILL)
        if chunk_ordinal in self.delay_chunks:
            return FaultAction(FaultKind.DELAY, delay_s=self.delay_chunks[chunk_ordinal])
        if chunk_ordinal in self.corrupt_chunks:
            return FaultAction(FaultKind.CORRUPT)
        return None

    @classmethod
    def from_spec(cls, spec: str) -> "ChunkFaultPlan":
        kill: set = set()
        corrupt: set = set()
        delay: Dict[int, float] = {}
        attempts = 1
        for clause in filter(None, (part.strip() for part in spec.split(";"))):
            if "=" not in clause:
                raise ValueError(f"bad fault clause {clause!r} (expected key=values)")
            key, _, values = clause.partition("=")
            key = key.strip()
            try:
                if key == "kill":
                    kill.update(int(v) for v in values.split(","))
                elif key == "corrupt":
                    corrupt.update(int(v) for v in values.split(","))
                elif key == "delay":
                    for pair in values.split(","):
                        ordinal, _, seconds = pair.partition(":")
                        delay[int(ordinal)] = float(seconds) if seconds else 0.5
                elif key == "attempts":
                    attempts = int(values)
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r} "
                        f"(expected kill, delay, corrupt, or attempts)"
                    )
            except ValueError as error:
                raise ValueError(f"bad fault clause {clause!r}: {error}") from None
        return cls(
            kill_chunks=frozenset(kill),
            delay_chunks=delay,
            corrupt_chunks=frozenset(corrupt),
            max_faulted_attempts=attempts,
        )


@dataclass(frozen=True)
class SitePolicy:
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.5
    corrupt_rate: float = 0.0
    shm_fault: bool = False

    def __post_init__(self) -> None:
        for name in ("kill_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class SiteFaultPlan:
    sites: Mapping[str, SitePolicy] = field(default_factory=dict)
    seed: int = 0
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_faulted_attempts < 1:
            raise ValueError(
                f"max_faulted_attempts must be >= 1, got {self.max_faulted_attempts}"
            )

    def action_for(
        self, site: str, chunk_ordinal: int, attempt: int
    ) -> Optional[FaultAction]:
        policy = self.sites.get(site)
        if policy is None:
            return None
        if policy.shm_fault:
            return FaultAction(FaultKind.SHM)
        if attempt >= self.max_faulted_attempts:
            return None
        draw = Random(f"{self.seed}|{site}|{chunk_ordinal}|{attempt}").random()
        if draw < policy.kill_rate:
            return FaultAction(FaultKind.KILL)
        if draw < policy.kill_rate + policy.delay_rate:
            return FaultAction(FaultKind.DELAY, delay_s=policy.delay_s)
        if draw < policy.kill_rate + policy.delay_rate + policy.corrupt_rate:
            return FaultAction(FaultKind.CORRUPT)
        return None

    @classmethod
    def from_spec(cls, spec: str) -> "SiteFaultPlan":
        policies: Dict[str, SitePolicy] = {}
        attempts = 1
        seed = 0
        for clause in filter(None, (part.strip() for part in spec.split(";"))):
            try:
                if ":" not in clause:
                    key, _, value = clause.partition("=")
                    key = key.strip()
                    if key == "attempts":
                        attempts = int(value)
                    elif key == "seed":
                        seed = int(value)
                    else:
                        raise ValueError(
                            f"expected SITE:kind or attempts=/seed=, got {key!r}"
                        )
                    continue
                site, _, fault = clause.partition(":")
                site = site.strip()
                if not site:
                    raise ValueError("empty site code")
                body, _, rate_text = fault.partition("@")
                rate = float(rate_text) if rate_text else 1.0
                kind, _, value_text = body.partition("=")
                kind = kind.strip()
                policy = policies.get(site, SitePolicy())
                if kind == "kill":
                    policy = dataclasses.replace(policy, kill_rate=rate)
                elif kind == "delay":
                    delay_s = float(value_text) if value_text else 0.5
                    policy = dataclasses.replace(
                        policy, delay_rate=rate, delay_s=delay_s
                    )
                elif kind == "corrupt":
                    policy = dataclasses.replace(policy, corrupt_rate=rate)
                elif kind == "shm":
                    policy = dataclasses.replace(policy, shm_fault=True)
                else:
                    raise ValueError(
                        f"unknown fault kind {kind!r} "
                        f"(expected kill, delay, corrupt, or shm)"
                    )
                policies[site] = policy
            except ValueError as error:
                raise ValueError(f"bad fleet fault clause {clause!r}: {error}") from None
        return cls(sites=policies, seed=seed, max_faulted_attempts=attempts)


# --- Equivalence -----------------------------------------------------------


def _oracle(spec: str):
    """Both oracle plans for ``spec``, routed clause by clause."""
    bare, sited = [], []
    for clause in filter(None, (part.strip() for part in spec.split(";"))):
        key = clause.partition("=")[0]
        if ":" in key or key.strip() == "seed":
            sited.append(clause)
        elif key.strip() == "attempts":
            bare.append(clause)
            sited.append(clause)
        else:
            bare.append(clause)
    return ChunkFaultPlan.from_spec(";".join(bare)), SiteFaultPlan.from_spec(
        ";".join(sited)
    )


def test_spec_list_covers_the_repo():
    found = set()
    for root in ("tests", ".github", "README.md", "DESIGN.md"):
        path = _REPO / root
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.suffix in (".py", ".yml", ".md") and file.name != _SELF:
                found.update(m.group(2) for m in _LITERAL.finditer(file.read_text()))
    assert found, "the literal scan found no fault specs"
    assert found <= set(SPECS), sorted(found - set(SPECS))


@pytest.mark.parametrize("spec", SPECS)
def test_unified_grammar_matches_the_old_grammars(spec):
    try:
        chunk_plan, site_plan = _oracle(spec)
    except ValueError:
        with pytest.raises(ValueError):
            FleetFaultPlan.from_spec(spec)
        return
    if spec in NEWLY_REJECTED:
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            FleetFaultPlan.from_spec(spec)
        return
    plan = FleetFaultPlan.from_spec(spec)
    for site in ("UT", "OR"):
        for ordinal in range(8):
            for attempt in range(3):
                expected = site_plan.action_for(
                    site, ordinal, attempt
                ) or chunk_plan.action_for(ordinal, attempt)
                assert plan.action_for(site, ordinal, attempt) == expected, (
                    site,
                    ordinal,
                    attempt,
                )
