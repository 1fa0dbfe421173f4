"""Typed errors for the sweep's environment knobs.

``REPRO_BATCH_MIN_ROWS`` and ``REPRO_MP_START_METHOD`` reach spawned
workers through the environment.  A malformed value must fail in the
parent with a ``ValueError`` that names the variable and what it
accepts — never as a bare ``int()`` error inside a worker, a silent
clamp, or multiprocessing's generic message.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import Strategy, optimize
from repro.core.design import DesignSpace
from repro.core.evaluate import batch_min_rows_override, evaluate_block

SPACE = DesignSpace(
    solar_mw=(0.0, 30.0),
    wind_mw=(0.0, 30.0),
    battery_mwh=(0.0, 50.0),
    extra_capacity_fractions=(0.0,),
)


class TestBatchMinRows:
    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "2.5", " "])
    def test_malformed_values_raise_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", raw)
        with pytest.raises(ValueError, match="REPRO_BATCH_MIN_ROWS.*positive integer"):
            batch_min_rows_override()

    @pytest.mark.parametrize("raw, rows", [("1", 1), ("160", 160), (" 8 ", 8)])
    def test_positive_integers_are_accepted(self, monkeypatch, raw, rows):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", raw)
        assert batch_min_rows_override() == rows

    def test_unset_or_empty_means_the_default_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_MIN_ROWS", raising=False)
        assert batch_min_rows_override() is None
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "")
        assert batch_min_rows_override() is None

    def test_evaluate_block_raises(self, monkeypatch, ut_context):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "-5")
        designs = list(SPACE.points(Strategy.RENEWABLES_CAS))
        with pytest.raises(ValueError, match="REPRO_BATCH_MIN_ROWS"):
            evaluate_block(ut_context, designs, Strategy.RENEWABLES_CAS)

    def test_pooled_batched_sweep_fails_in_the_parent(self, monkeypatch, ut_context):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "abc")
        with pytest.raises(ValueError, match="REPRO_BATCH_MIN_ROWS"):
            optimize(
                ut_context,
                SPACE,
                Strategy.RENEWABLES_BATTERY,
                workers=2,
                batch_size=2,
            )

    def test_pooled_sweep_without_batch_size_fails_in_the_parent(
        self, monkeypatch, ut_context
    ):
        # Every chunk goes through the block evaluator, so the floor is
        # read at construction whether or not ``batch_size`` is given.
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "abc")
        with pytest.raises(ValueError, match="REPRO_BATCH_MIN_ROWS"):
            optimize(ut_context, SPACE, Strategy.RENEWABLES_CAS, workers=2)


class TestStartMethod:
    def test_unknown_method_names_the_variable_and_the_choices(
        self, monkeypatch, ut_context
    ):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "bogus")
        with pytest.raises(ValueError) as raised:
            optimize(ut_context, SPACE, Strategy.RENEWABLES_ONLY, workers=2)
        message = str(raised.value)
        assert "REPRO_MP_START_METHOD" in message
        assert "'bogus'" in message
        for method in multiprocessing.get_all_start_methods():
            assert method in message
