"""Per-site fault domains: site-scoped fault plans and adaptive timeouts.

The fleet scheduler (:mod:`repro.core.fleet`) sweeps every site of a
multi-site study over one shared worker pool.  For that to be *robust*
rather than merely fast, each site must be an isolated fault domain — a
site whose workers keep dying, whose shared-memory segment cannot be
attached, or whose payloads keep failing validation is quarantined
without taking the other twelve sites down.  This module supplies the
two site-scoped pieces the scheduler threads through:

* :class:`FleetFaultPlan` / :class:`SiteFaultPolicy` — deterministic,
  seeded, *site-scoped* fault injection (per-site kill rates, slow-worker
  delays, payload corruption, shm attach failure) so the isolation is
  chaos-testable end to end.  The chunk-scoped
  :class:`~repro.resilience.faults.FaultPlan` addresses chunks of one
  sweep; a fleet plan addresses ``(site, chunk ordinal, attempt)``
  triples across the whole fleet.
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
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Mapping, Optional

from .faults import FaultAction, FaultKind


@dataclass(frozen=True)
class SiteFaultPolicy:
    """Fault behaviour for one site's chunks.

    Rates are per chunk *attempt* in ``[0, 1]``; one seeded draw per
    attempt is partitioned kill → delay → corrupt, so kill wins when the
    rates overlap.  ``shm_fault`` is not rate-based: a torn or
    unattachable shared-memory segment is a persistent property of the
    site, so it fires on every attempt and the scheduler quarantines the
    site on first sight.
    """

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

    def is_empty(self) -> bool:
        """Whether this policy injects no faults at all."""
        return not (
            self.kill_rate or self.delay_rate or self.corrupt_rate or self.shm_fault
        )


@dataclass(frozen=True)
class FleetFaultPlan:
    """A deterministic schedule of site-scoped faults for a fleet sweep.

    ``sites`` maps site keys (state codes) to their
    :class:`SiteFaultPolicy`; sites absent from the map are healthy.  As
    with :class:`~repro.resilience.faults.FaultPlan`, a rate-based fault
    fires only while the chunk's attempt number is below
    ``max_faulted_attempts`` (default 1: fail once, then behave), so
    retried chunks succeed and healthy results stay bitwise-identical to
    a fault-free run.  ``shm_fault`` ignores the attempt gate — a segment
    that cannot be attached stays unattachable.
    """

    sites: Mapping[str, SiteFaultPolicy] = field(default_factory=dict)
    seed: int = 0
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_faulted_attempts < 1:
            raise ValueError(
                f"max_faulted_attempts must be >= 1, got {self.max_faulted_attempts}"
            )
        for site, policy in self.sites.items():
            if not isinstance(policy, SiteFaultPolicy):
                raise ValueError(
                    f"site {site!r}: expected a SiteFaultPolicy, "
                    f"got {type(policy).__name__}"
                )

    def is_empty(self) -> bool:
        """Whether this plan injects no faults at all."""
        return all(policy.is_empty() for policy in self.sites.values())

    def action_for(
        self, site: str, chunk_ordinal: int, attempt: int
    ) -> Optional[FaultAction]:
        """The fault for one ``(site, chunk, attempt)``, or ``None``.

        Deterministic: the same arguments always return the same action.
        """
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
    def from_spec(cls, spec: str) -> "FleetFaultPlan":
        """Parse a compact CLI spec of site-scoped faults.

        Semicolon-separated clauses.  A site clause is
        ``SITE:kind[=value][@rate]``; repeated clauses for one site merge:

        * ``UT:kill`` — kill every first-attempt chunk of UT (rate 1.0);
        * ``UT:kill@0.25`` — kill a seeded-random quarter of them;
        * ``OR:delay=2.0@0.5`` — delay half of OR's chunks by 2 s;
        * ``NC:corrupt`` — corrupt NC's chunk payloads;
        * ``TX:shm`` — TX's shared segment cannot be attached.

        Global clauses: ``attempts=N`` sets ``max_faulted_attempts``,
        ``seed=N`` the draw seed.
        """
        policies: Dict[str, SiteFaultPolicy] = {}
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
                policy = policies.get(site, SiteFaultPolicy())
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

    @property
    def ewma_s(self) -> Optional[float]:
        """Current average chunk duration, or ``None`` before any data."""
        return self._ewma

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
