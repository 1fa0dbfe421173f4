"""Site-scoped fault plans and the adaptive chunk-timeout EWMA.

The contracts under test: a :class:`FleetFaultPlan` is deterministic (the
same ``(site, ordinal, attempt)`` always draws the same fault, across
processes), site-scoped (unlisted sites are untouched), attempt-gated
(except shm faults, which are persistent), and round-trips through the
CLI spec grammar.  :class:`AdaptiveChunkTimeout` must seed from
``initial_s``, track the EWMA exactly, and respect floor and cap.
"""

from __future__ import annotations

import re

import pytest

from repro.resilience import (
    AdaptiveChunkTimeout,
    FaultKind,
    FleetFaultPlan,
    SiteFaultPolicy,
)


class TestSiteFaultPolicy:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="kill_rate"):
            SiteFaultPolicy(kill_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_rate"):
            SiteFaultPolicy(corrupt_rate=-0.1)
        with pytest.raises(ValueError, match="delay_s"):
            SiteFaultPolicy(delay_rate=0.5, delay_s=-1.0)

    def test_is_empty(self):
        assert SiteFaultPolicy().is_empty()
        assert not SiteFaultPolicy(kill_rate=0.1).is_empty()
        assert not SiteFaultPolicy(shm_fault=True).is_empty()


class TestFleetFaultPlan:
    def test_unlisted_sites_never_fault(self):
        plan = FleetFaultPlan(sites={"UT": SiteFaultPolicy(kill_rate=1.0)})
        assert all(
            plan.action_for("OR", ordinal, 0) is None for ordinal in range(50)
        )

    def test_rate_one_kills_every_first_attempt(self):
        plan = FleetFaultPlan(sites={"UT": SiteFaultPolicy(kill_rate=1.0)})
        for ordinal in range(20):
            action = plan.action_for("UT", ordinal, 0)
            assert action is not None and action.kind is FaultKind.KILL

    def test_attempt_gate_clears_rate_faults(self):
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(kill_rate=1.0)}, max_faulted_attempts=2
        )
        assert plan.action_for("UT", 3, 1) is not None
        assert plan.action_for("UT", 3, 2) is None

    def test_shm_fault_ignores_attempt_gate(self):
        plan = FleetFaultPlan(sites={"TX": SiteFaultPolicy(shm_fault=True)})
        for attempt in range(5):
            action = plan.action_for("TX", 0, attempt)
            assert action is not None and action.kind is FaultKind.SHM

    def test_draws_are_deterministic_and_seed_sensitive(self):
        policy = SiteFaultPolicy(kill_rate=0.5)
        plan_a = FleetFaultPlan(sites={"UT": policy}, seed=7)
        plan_b = FleetFaultPlan(sites={"UT": policy}, seed=7)
        plan_c = FleetFaultPlan(sites={"UT": policy}, seed=8)
        draws_a = [plan_a.action_for("UT", o, 0) for o in range(64)]
        draws_b = [plan_b.action_for("UT", o, 0) for o in range(64)]
        draws_c = [plan_c.action_for("UT", o, 0) for o in range(64)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        killed = sum(1 for a in draws_a if a is not None)
        assert 0 < killed < 64  # a rate, not a constant

    def test_single_draw_partition_prefers_kill(self):
        # kill_rate + delay_rate = 1.0: every draw lands in one of the
        # two, never both, never neither.
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(kill_rate=0.5, delay_rate=0.5)}
        )
        kinds = {plan.action_for("UT", o, 0).kind for o in range(64)}
        assert kinds == {FaultKind.KILL, FaultKind.DELAY}

    def test_delay_carries_duration(self):
        plan = FleetFaultPlan(
            sites={"OR": SiteFaultPolicy(delay_rate=1.0, delay_s=2.5)}
        )
        action = plan.action_for("OR", 0, 0)
        assert action.kind is FaultKind.DELAY
        assert action.delay_s == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_faulted_attempts"):
            FleetFaultPlan(max_faulted_attempts=0)
        with pytest.raises(ValueError, match="SiteFaultPolicy"):
            FleetFaultPlan(sites={"UT": "kill"})  # type: ignore[dict-item]


class TestFromSpec:
    def test_full_grammar(self):
        plan = FleetFaultPlan.from_spec(
            "UT:kill@0.25;OR:delay=2.0@0.5;NC:corrupt;TX:shm;attempts=2;seed=7"
        )
        assert plan.seed == 7
        assert plan.max_faulted_attempts == 2
        assert plan.sites["UT"].kill_rate == pytest.approx(0.25)
        assert plan.sites["OR"].delay_rate == pytest.approx(0.5)
        assert plan.sites["OR"].delay_s == pytest.approx(2.0)
        assert plan.sites["NC"].corrupt_rate == pytest.approx(1.0)
        assert plan.sites["TX"].shm_fault

    def test_repeated_site_clauses_merge(self):
        plan = FleetFaultPlan.from_spec("UT:kill@0.5;UT:corrupt@0.1")
        assert plan.sites["UT"].kill_rate == pytest.approx(0.5)
        assert plan.sites["UT"].corrupt_rate == pytest.approx(0.1)

    def test_bare_kind_defaults_to_rate_one(self):
        plan = FleetFaultPlan.from_spec("UT:kill")
        assert plan.sites["UT"].kill_rate == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "UT:explode",
            "bogus=3",
            ":kill",
            "UT:kill@2.0",
            "attempts=x",
            "UT:delay=nan",
            "UT:kill=3",
            "UT:shm=1",
            "UT:shm@0.5",
        ],
    )
    def test_bad_clauses_are_loud(self, spec):
        clause = re.escape(repr(spec))
        with pytest.raises(ValueError, match=f"bad fleet fault clause {clause}"):
            FleetFaultPlan.from_spec(spec)


class TestAdaptiveChunkTimeout:
    def test_no_seed_no_budget_until_first_observation(self):
        timeout = AdaptiveChunkTimeout()
        assert timeout.budget_s() is None
        timeout.observe(1.0)
        assert timeout.budget_s() == pytest.approx(8.0)

    def test_initial_seed_used_before_observations(self):
        timeout = AdaptiveChunkTimeout(initial_s=30.0)
        assert timeout.budget_s() == pytest.approx(30.0)
        timeout.observe(0.5)
        assert timeout.budget_s() == pytest.approx(4.0)

    def test_ewma_math(self):
        timeout = AdaptiveChunkTimeout(alpha=0.5, multiplier=2.0, floor_s=0.0)
        timeout.observe(1.0)
        timeout.observe(3.0)  # 0.5*3 + 0.5*1 = 2.0
        assert timeout.ewma_s == pytest.approx(2.0)
        assert timeout.budget_s() == pytest.approx(4.0)
        assert timeout.observations == 2

    def test_floor_and_cap(self):
        timeout = AdaptiveChunkTimeout(floor_s=1.0, cap_s=5.0, multiplier=8.0)
        timeout.observe(0.001)
        assert timeout.budget_s() == pytest.approx(1.0)  # floored
        timeout = AdaptiveChunkTimeout(floor_s=0.0, cap_s=5.0, multiplier=8.0)
        timeout.observe(100.0)
        assert timeout.budget_s() == pytest.approx(5.0)  # capped

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_s"):
            AdaptiveChunkTimeout(initial_s=0.0)
        with pytest.raises(ValueError, match="alpha"):
            AdaptiveChunkTimeout(alpha=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            AdaptiveChunkTimeout(multiplier=0.5)
        with pytest.raises(ValueError, match="duration_s"):
            AdaptiveChunkTimeout().observe(-1.0)
