"""Tests for the workload tier registry and flexibility model (Fig. 10)."""

import pytest

from repro.datacenter import (
    DATA_PROCESSING_FLEET_FRACTION,
    DEFAULT_FLEXIBLE_WORKLOAD_RATIO,
    WORKLOAD_TIERS,
    FlexibilityModel,
    WorkloadTier,
    flexible_fraction_within,
)


class TestFigure10:
    def test_five_tiers(self):
        assert len(WORKLOAD_TIERS) == 5

    def test_shares_match_figure(self):
        shares = {t.tier: t.share for t in WORKLOAD_TIERS}
        assert shares == {1: 0.088, 2: 0.038, 3: 0.105, 4: 0.712, 5: 0.057}

    def test_shares_sum_to_one(self):
        assert sum(t.share for t in WORKLOAD_TIERS) == pytest.approx(1.0)

    def test_windows_match_figure(self):
        windows = {t.tier: t.slo_window_hours for t in WORKLOAD_TIERS}
        assert windows == {1: 1, 2: 2, 3: 4, 4: 24, 5: None}

    def test_paper_87_percent_claim(self):
        """§4.3: ~87.4% of data-processing workloads have SLOs >= 4 hours.

        Tiers 3 (±4 h), 4 (daily), and 5 (none): 0.105+0.712+0.057 = 0.874.
        """
        assert flexible_fraction_within(4) == pytest.approx(0.874)

    def test_daily_flexible_fraction(self):
        assert flexible_fraction_within(24) == pytest.approx(0.712 + 0.057)

    def test_everything_shiftable_by_one_hour(self):
        assert flexible_fraction_within(1) == pytest.approx(1.0)

    def test_only_no_slo_beyond_a_day(self):
        assert flexible_fraction_within(25) == pytest.approx(0.057)


class TestWorkloadTier:
    def test_can_shift_within(self):
        tier = WorkloadTier(3, "x", 4, 0.1)
        assert tier.can_shift_within(4)
        assert tier.can_shift_within(1)
        assert not tier.can_shift_within(5)

    def test_no_slo_shifts_any_window(self):
        tier = WorkloadTier(5, "none", None, 0.05)
        assert tier.can_shift_within(10_000)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTier(1, "x", 1, 0.1).can_shift_within(-1)

    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTier(1, "x", 1, 1.5)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTier(1, "x", 0, 0.1)


class TestFlexibilityModel:
    def test_paper_default_is_40_percent(self):
        assert DEFAULT_FLEXIBLE_WORKLOAD_RATIO == 0.40
        assert FlexibilityModel().flexible_ratio == 0.40

    def test_movable_power(self):
        model = FlexibilityModel(flexible_ratio=0.25)
        assert model.movable_power_mw(100.0) == 25.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            FlexibilityModel().movable_power_mw(-1.0)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            FlexibilityModel(flexible_ratio=1.5)

    def test_from_tiers_composes_fleet_share(self):
        model = FlexibilityModel.from_tiers(window_hours=24)
        expected = DATA_PROCESSING_FLEET_FRACTION * (0.712 + 0.057)
        assert model.flexible_ratio == pytest.approx(expected)

    def test_from_tiers_tighter_window_more_flexible(self):
        assert (
            FlexibilityModel.from_tiers(1).flexible_ratio
            > FlexibilityModel.from_tiers(24).flexible_ratio
        )
