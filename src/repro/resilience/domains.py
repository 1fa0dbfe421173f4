"""Fault domains: the one fault plan, and adaptive stall timeouts.

Every sweep runs through the fleet scheduler (:mod:`repro.core.fleet`),
which sweeps the sites of a study over one shared worker pool.  For that
to be *robust* rather than merely fast, each site must be an isolated
fault domain — a site whose workers keep dying, whose shared-memory
segment cannot be attached, or whose payloads keep failing validation is
quarantined without taking the other sites down.  This module supplies
the two pieces the scheduler threads through:

* :class:`FleetFaultPlan` / :class:`SiteFaultPolicy` — deterministic
  fault injection addressed by ``(site, chunk ordinal, attempt)``: chunk
  ordinals to kill, delay or corrupt, seeded per-site kill / delay /
  corrupt rates, and shm attach failure, so fault tolerance and site
  isolation are testable end to end.  One spec grammar
  (:meth:`FleetFaultPlan.from_spec`) covers both every-site chunk faults
  (``kill=0;corrupt=1``) and site-scoped ones (``UT:kill@0.5``).
* :class:`AdaptiveChunkTimeout` — an EWMA over observed chunk durations,
  seeded by ``chunk_timeout``: the stall budget for a chunk is a
  multiple of what chunks have actually been taking, so a fleet mixing
  fast and slow sites neither false-trips on the slow ones nor waits
  forever on a wedged worker.

Determinism: rate-based fault draws hash ``(seed, site, ordinal,
attempt)`` through a private :class:`random.Random` seeded with a string
(string seeding is stable across processes and interpreter runs, unlike
``hash()``), so the same plan over the same fleet always injects the
same faults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from random import Random
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .faults import FaultAction, FaultKind


def _check_seconds(name: str, seconds: float) -> None:
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {seconds}")


@dataclass(frozen=True)
class SiteFaultPolicy:
    """Fault behaviour for one site's chunks (or, as a plan's
    ``every_site`` policy, for every site's).

    ``kill_chunks`` / ``delay_chunks`` (ordinal → seconds) /
    ``corrupt_chunks`` address chunk ordinals directly.  Rates are per
    chunk *attempt* in ``[0, 1]``; one seeded draw per attempt is
    partitioned kill → delay → corrupt, so kill wins when the rates
    overlap.  Ordinals are checked before the draw, in the same kill →
    delay → corrupt order.  ``shm_fault`` is not attempt-based: a torn
    or unattachable shared-memory segment is a persistent property of
    the site, so it fires on every attempt and the scheduler quarantines
    the site on first sight.
    """

    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.5
    corrupt_rate: float = 0.0
    shm_fault: bool = False
    kill_chunks: FrozenSet[int] = frozenset()
    delay_chunks: Mapping[int, float] = field(default_factory=dict)
    corrupt_chunks: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ("kill_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        _check_seconds("delay_s", self.delay_s)
        for ordinal in (*self.kill_chunks, *self.delay_chunks, *self.corrupt_chunks):
            if ordinal < 0:
                raise ValueError(f"chunk ordinals must be >= 0, got {ordinal}")
        for ordinal, seconds in self.delay_chunks.items():
            _check_seconds(f"delay for chunk {ordinal}", seconds)

    def is_empty(self) -> bool:
        """Whether this policy injects no faults at all."""
        return not (
            self.kill_rate
            or self.delay_rate
            or self.corrupt_rate
            or self.shm_fault
            or self.kill_chunks
            or self.delay_chunks
            or self.corrupt_chunks
        )

    def action_for(self, chunk_ordinal: int, draw_key: str) -> Optional[FaultAction]:
        """This policy's attempt-gated fault for one chunk (``shm`` aside)."""
        if chunk_ordinal in self.kill_chunks:
            return FaultAction(FaultKind.KILL)
        if chunk_ordinal in self.delay_chunks:
            return FaultAction(FaultKind.DELAY, delay_s=self.delay_chunks[chunk_ordinal])
        if chunk_ordinal in self.corrupt_chunks:
            return FaultAction(FaultKind.CORRUPT)
        draw = Random(draw_key).random()
        if draw < self.kill_rate:
            return FaultAction(FaultKind.KILL)
        if draw < self.kill_rate + self.delay_rate:
            return FaultAction(FaultKind.DELAY, delay_s=self.delay_s)
        if draw < self.kill_rate + self.delay_rate + self.corrupt_rate:
            return FaultAction(FaultKind.CORRUPT)
        return None


@dataclass(frozen=True)
class FleetFaultPlan:
    """A deterministic schedule of chunk faults for a sweep.

    ``sites`` maps site keys (state codes) to their own
    :class:`SiteFaultPolicy`; ``every_site`` applies at every site of
    the sweep.  A fault other than ``shm`` fires only while the chunk's
    attempt number is below ``max_faulted_attempts`` (default 1: fail
    once, then behave), so retried chunks succeed and results stay
    bitwise-identical to a fault-free run.

    Precedence when several faults apply to one chunk attempt: ``shm``
    first (from either policy, ignoring the attempt gate — a segment
    that cannot be attached stays unattachable); then the site's own
    policy before ``every_site``; within a policy, ordinals before the
    seeded draw, each in the order kill → delay → corrupt.
    """

    sites: Mapping[str, SiteFaultPolicy] = field(default_factory=dict)
    every_site: SiteFaultPolicy = SiteFaultPolicy()
    seed: int = 0
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_faulted_attempts < 1:
            raise ValueError(
                f"max_faulted_attempts must be >= 1, got {self.max_faulted_attempts}"
            )
        for site, policy in [*self.sites.items(), ("every_site", self.every_site)]:
            if not isinstance(policy, SiteFaultPolicy):
                raise ValueError(
                    f"site {site!r}: expected a SiteFaultPolicy, "
                    f"got {type(policy).__name__}"
                )

    def is_empty(self) -> bool:
        """Whether this plan injects no faults at all."""
        return self.every_site.is_empty() and all(
            policy.is_empty() for policy in self.sites.values()
        )

    def action_for(
        self, site: str, chunk_ordinal: int, attempt: int
    ) -> Optional[FaultAction]:
        """The fault for one ``(site, chunk, attempt)``, or ``None``.

        Deterministic: the same arguments always return the same action.
        """
        own = self.sites.get(site)
        policies = (self.every_site,) if own is None else (own, self.every_site)
        if any(policy.shm_fault for policy in policies):
            return FaultAction(FaultKind.SHM)
        if attempt >= self.max_faulted_attempts:
            return None
        draw_key = f"{self.seed}|{site}|{chunk_ordinal}|{attempt}"
        for policy in policies:
            action = policy.action_for(chunk_ordinal, draw_key)
            if action is not None:
                return action
        return None

    @classmethod
    def from_spec(cls, spec: str) -> "FleetFaultPlan":
        """Parse a compact CLI spec, e.g. ``"kill=0,2;delay=1:0.5;UT:shm"``.

        Semicolon-separated clauses.  Bare clauses address chunk ordinals
        at every site:

        * ``kill=0,2`` / ``corrupt=3`` — comma-separated chunk ordinals;
        * ``delay=1:0.5`` — comma-separated ``ordinal[:seconds]`` pairs
          (seconds default to 0.5).

        A site clause is ``SITE:kind[=value][@rate]``; repeated clauses
        for one site merge:

        * ``UT:kill`` — kill every first-attempt chunk of UT (rate 1.0);
        * ``UT:kill@0.25`` — kill a seeded-random quarter of them;
        * ``OR:delay=2.0@0.5`` — delay half of OR's chunks by 2 s;
        * ``NC:corrupt`` — corrupt NC's chunk payloads;
        * ``TX:shm`` — TX's shared segment cannot be attached.

        Global clauses: ``attempts=N`` sets ``max_faulted_attempts``,
        ``seed=N`` the draw seed.  A malformed clause raises
        :class:`ValueError` naming it.
        """
        policies: Dict[str, SiteFaultPolicy] = {}
        every_site = SiteFaultPolicy()
        attempts = 1
        seed = 0
        for clause in filter(None, (part.strip() for part in spec.split(";"))):
            try:
                # A site clause's colon comes before any '=', a bare
                # delay's (``delay=1:0.5``) after it.
                if ":" in clause.partition("=")[0]:
                    site, policy = _parse_site_clause(clause, policies)
                    policies[site] = policy
                    continue
                if "=" not in clause:
                    raise ValueError("expected key=values or SITE:kind")
                key, _, values = clause.partition("=")
                key = key.strip()
                if key == "attempts":
                    attempts = int(values)
                    if attempts < 1:
                        raise ValueError(f"attempts must be >= 1, got {attempts}")
                elif key == "seed":
                    seed = int(values)
                elif key == "kill":
                    every_site = dataclasses.replace(
                        every_site,
                        kill_chunks=every_site.kill_chunks | _ordinals(values),
                    )
                elif key == "corrupt":
                    every_site = dataclasses.replace(
                        every_site,
                        corrupt_chunks=every_site.corrupt_chunks | _ordinals(values),
                    )
                elif key == "delay":
                    delays = dict(every_site.delay_chunks)
                    for pair in values.split(","):
                        ordinal, _, seconds = pair.partition(":")
                        delays[int(ordinal)] = float(seconds) if seconds else 0.5
                    every_site = dataclasses.replace(every_site, delay_chunks=delays)
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r} (expected kill, delay, "
                        f"corrupt, attempts, seed, or SITE:kind)"
                    )
            except ValueError as error:
                raise ValueError(f"bad fleet fault clause {clause!r}: {error}") from None
        return cls(
            sites=policies,
            every_site=every_site,
            seed=seed,
            max_faulted_attempts=attempts,
        )


def _ordinals(values: str) -> FrozenSet[int]:
    return frozenset(int(value) for value in values.split(","))


def _parse_site_clause(
    clause: str, policies: Mapping[str, SiteFaultPolicy]
) -> Tuple[str, SiteFaultPolicy]:
    """One ``SITE:kind[=value][@rate]`` clause, merged into the site's policy."""
    site, _, fault = clause.partition(":")
    site = site.strip()
    if not site:
        raise ValueError("empty site code")
    body, _, rate_text = fault.partition("@")
    kind, has_value, value_text = body.partition("=")
    kind = kind.strip()
    if kind not in ("kill", "delay", "corrupt", "shm"):
        raise ValueError(
            f"unknown fault kind {kind!r} (expected kill, delay, corrupt, or shm)"
        )
    if has_value and kind != "delay":
        raise ValueError(f"{kind!r} takes no =value")
    if rate_text and kind == "shm":
        raise ValueError("'shm' takes no @rate")
    rate = float(rate_text) if rate_text else 1.0
    policy = policies.get(site, SiteFaultPolicy())
    if kind == "kill":
        policy = dataclasses.replace(policy, kill_rate=rate)
    elif kind == "delay":
        delay_s = float(value_text) if value_text else 0.5
        policy = dataclasses.replace(policy, delay_rate=rate, delay_s=delay_s)
    elif kind == "corrupt":
        policy = dataclasses.replace(policy, corrupt_rate=rate)
    else:
        policy = dataclasses.replace(policy, shm_fault=True)
    return site, policy


class AdaptiveChunkTimeout:
    """EWMA-driven per-chunk stall budget.

    The one stall contract of every sweep: each completed chunk's
    duration feeds an exponentially weighted moving average, and the budget for an
    outstanding chunk is ``max(floor_s, multiplier * ewma)`` (optionally
    capped).  Until the first observation the budget is the ``initial_s``
    seed — ``None`` disables stall detection entirely until real
    durations exist, at which point the average takes over.

    The multiplier is deliberately generous (default 8x): the budget is a
    wedged-worker detector, not a latency SLO, and a false trip costs a
    redundant re-evaluation while a missed one costs the whole budget of
    the fleet's deadline.
    """

    def __init__(
        self,
        initial_s: Optional[float] = None,
        alpha: float = 0.25,
        multiplier: float = 8.0,
        floor_s: float = 0.25,
        cap_s: Optional[float] = None,
    ) -> None:
        if initial_s is not None and initial_s <= 0:
            raise ValueError(f"initial_s must be positive or None, got {initial_s}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if floor_s < 0:
            raise ValueError(f"floor_s must be >= 0, got {floor_s}")
        if cap_s is not None and cap_s <= 0:
            raise ValueError(f"cap_s must be positive or None, got {cap_s}")
        self._initial_s = initial_s
        self._alpha = alpha
        self._multiplier = multiplier
        self._floor_s = floor_s
        self._cap_s = cap_s
        self._ewma: Optional[float] = None
        self.observations = 0

    def observe(self, duration_s: float) -> None:
        """Feed one completed chunk's wall-clock duration into the average."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        if self._ewma is None:
            self._ewma = duration_s
        else:
            self._ewma = self._alpha * duration_s + (1 - self._alpha) * self._ewma
        self.observations += 1

    def budget_s(self) -> Optional[float]:
        """Current stall budget for an outstanding chunk, or ``None``.

        ``None`` means "no stall detection": no observations yet and no
        ``initial_s`` seed to fall back to.
        """
        if self._ewma is None:
            return self._initial_s
        budget = max(self._floor_s, self._multiplier * self._ewma)
        if self._cap_s is not None:
            budget = min(budget, self._cap_s)
        return budget
