"""Chunk-ordinal faults: construction, spec parsing, attempt gating, precedence."""

from __future__ import annotations

import re

import pytest

from repro.resilience import (
    FaultAction,
    FaultKind,
    FleetFaultPlan,
    SiteFaultPolicy,
    corrupt_payload,
    execute_pre_fault,
)


def _every_site(**policy) -> FleetFaultPlan:
    return FleetFaultPlan(every_site=SiteFaultPolicy(**policy))


class TestFaultPlanBasics:
    def test_empty_plan(self):
        plan = FleetFaultPlan()
        assert plan.is_empty()
        assert plan.action_for("UT", 0, 0) is None

    def test_kill_wins_over_delay_and_corrupt(self):
        plan = _every_site(
            kill_chunks=frozenset({1}),
            delay_chunks={1: 0.5},
            corrupt_chunks=frozenset({1}),
        )
        assert plan.action_for("UT", 1, 0).kind is FaultKind.KILL

    def test_delay_carries_its_seconds(self):
        plan = _every_site(delay_chunks={2: 0.75})
        action = plan.action_for("UT", 2, 0)
        assert action.kind is FaultKind.DELAY
        assert action.delay_s == 0.75

    def test_attempt_gating_default_fires_once(self):
        plan = _every_site(kill_chunks=frozenset({0}))
        assert plan.action_for("UT", 0, 0) is not None
        assert plan.action_for("UT", 0, 1) is None

    def test_attempt_gating_configurable(self):
        plan = FleetFaultPlan(
            every_site=SiteFaultPolicy(kill_chunks=frozenset({0})),
            max_faulted_attempts=3,
        )
        assert plan.action_for("UT", 0, 2) is not None
        assert plan.action_for("UT", 0, 3) is None

    def test_every_site_policy_applies_at_every_site(self):
        plan = _every_site(corrupt_chunks=frozenset({4}))
        for site in ("UT", "OR", "anything"):
            assert plan.action_for(site, 4, 0).kind is FaultKind.CORRUPT
            assert plan.action_for(site, 3, 0) is None

    def test_rejects_non_positive_max_attempts(self):
        with pytest.raises(ValueError, match="max_faulted_attempts"):
            FleetFaultPlan(max_faulted_attempts=0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            SiteFaultPolicy(delay_chunks={0: -1.0})

    def test_rejects_negative_ordinal(self):
        with pytest.raises(ValueError, match="ordinals"):
            SiteFaultPolicy(kill_chunks=frozenset({-1}))


class TestPrecedence:
    """shm first; the site's own policy before every_site; within a
    policy, ordinals before the seeded draw, each kill → delay → corrupt."""

    def test_shm_beats_every_ordinal_and_the_attempt_gate(self):
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(kill_chunks=frozenset({0}))},
            every_site=SiteFaultPolicy(shm_fault=True),
        )
        for attempt in range(3):
            assert plan.action_for("UT", 0, attempt).kind is FaultKind.SHM

    def test_own_policy_beats_every_site(self):
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(corrupt_chunks=frozenset({0}))},
            every_site=SiteFaultPolicy(kill_chunks=frozenset({0})),
        )
        assert plan.action_for("UT", 0, 0).kind is FaultKind.CORRUPT
        assert plan.action_for("OR", 0, 0).kind is FaultKind.KILL

    def test_every_site_fills_in_where_own_policy_is_silent(self):
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(corrupt_chunks=frozenset({0}))},
            every_site=SiteFaultPolicy(delay_chunks={1: 0.25}),
        )
        action = plan.action_for("UT", 1, 0)
        assert action.kind is FaultKind.DELAY and action.delay_s == 0.25

    def test_ordinals_beat_the_seeded_draw(self):
        plan = FleetFaultPlan(
            sites={
                "UT": SiteFaultPolicy(
                    kill_rate=1.0, corrupt_chunks=frozenset({2})
                )
            }
        )
        assert plan.action_for("UT", 2, 0).kind is FaultKind.CORRUPT
        assert plan.action_for("UT", 3, 0).kind is FaultKind.KILL

    def test_own_draw_beats_every_site_ordinals(self):
        plan = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(delay_rate=1.0, delay_s=0.1)},
            every_site=SiteFaultPolicy(kill_chunks=frozenset({0})),
        )
        assert plan.action_for("UT", 0, 0).kind is FaultKind.DELAY

    def test_mixed_spec_follows_the_same_order(self):
        plan = FleetFaultPlan.from_spec("kill=0;corrupt=1;UT:delay=0.1")
        assert plan.action_for("UT", 0, 0).kind is FaultKind.DELAY
        assert plan.action_for("OR", 0, 0).kind is FaultKind.KILL
        assert plan.action_for("OR", 1, 0).kind is FaultKind.CORRUPT
        assert plan.action_for("OR", 2, 0) is None


class TestFromSpec:
    def test_full_spec(self):
        plan = FleetFaultPlan.from_spec("kill=0,2;delay=1:0.5;corrupt=3;attempts=2")
        assert plan.every_site.kill_chunks == frozenset({0, 2})
        assert plan.every_site.delay_chunks == {1: 0.5}
        assert plan.every_site.corrupt_chunks == frozenset({3})
        assert plan.max_faulted_attempts == 2
        assert plan.sites == {}

    def test_delay_defaults_seconds(self):
        plan = FleetFaultPlan.from_spec("delay=4")
        assert plan.every_site.delay_chunks == {4: 0.5}

    def test_empty_spec_is_empty_plan(self):
        assert FleetFaultPlan.from_spec("").is_empty()

    def test_whitespace_tolerated(self):
        plan = FleetFaultPlan.from_spec(" kill=1 ; corrupt=2 ")
        assert plan.every_site.kill_chunks == frozenset({1})

    @pytest.mark.parametrize(
        "spec",
        [
            "explode=1",
            "kill",
            "kill=x",
            "delay=1:abc",
            "attempts=maybe",
            "delay=0:nan",
            "delay=0:inf",
            "kill=-1",
        ],
    )
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            FleetFaultPlan.from_spec(spec)


class TestWorkerSideEffects:
    def test_execute_pre_fault_none_is_noop(self):
        execute_pre_fault(None)

    def test_delay_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.resilience.faults.time.sleep", slept.append)
        execute_pre_fault(FaultAction(FaultKind.DELAY, delay_s=0.25))
        assert slept == [0.25]

    def test_kill_hard_exits(self, monkeypatch):
        codes = []
        monkeypatch.setattr("repro.resilience.faults.os._exit", codes.append)
        execute_pre_fault(FaultAction(FaultKind.KILL))
        assert codes == [1]

    def test_corrupt_payload_wrong_type_same_length(self):
        damaged = corrupt_payload([1.0, 2.0, 3.0])
        assert len(damaged) == 3
        assert isinstance(damaged[-1], str)

    def test_corrupt_payload_empty_is_safe(self):
        assert corrupt_payload([]) == []
