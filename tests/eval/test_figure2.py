"""Tests for repro.eval.figure2 — experiment E2."""

from __future__ import annotations

import math

import pytest

from repro.config import ExperimentConfig
from repro.eval.figure2 import Figure2Result, run_figure2


@pytest.fixture(scope="module")
def result(request) -> Figure2Result:
    return run_figure2(case=request.getfixturevalue("case_study"))


class TestFigure2:
    def test_axis_matches_paper(self, result: Figure2Result):
        assert result.months == [12, 14, 16, 18, 20, 22, 24]

    def test_loyal_before_defection(self, result: Figure2Result):
        # "the stability value indicates that the customer is loyal in the
        # first months"
        for month, value in zip(result.months, result.stability):
            if month <= 18:
                assert value > 0.9

    def test_first_drop_at_month_20(self, result: Figure2Result):
        by_month = dict(zip(result.months, result.stability))
        assert by_month[20] < by_month[18] - 0.05

    def test_second_drop_sharper(self, result: Figure2Result):
        # "In month 22, the decrease is sharper because the customer lost
        # several significant products"
        by_month = dict(zip(result.months, result.stability))
        first_drop = by_month[18] - by_month[20]
        second_drop = by_month[20] - by_month[22]
        assert second_drop > first_drop

    def test_month20_explained_by_coffee(self, result: Figure2Result):
        names = result.explained_names(20, top_k=1)
        assert names == ["Coffee"]

    def test_month22_explained_by_milk_sponge_cheese(self, result: Figure2Result):
        names = set(result.explained_names(22, top_k=3))
        assert names == {"Milk", "Sponges", "Cheese"}

    def test_explanations_carry_stability(self, result: Figure2Result):
        by_month = dict(zip(result.months, result.stability))
        for month, explanation in result.explanations.items():
            assert explanation.stability == pytest.approx(by_month[month])

    def test_ground_truth_names(self, result: Figure2Result):
        assert result.first_loss_names == ("Coffee",)
        assert set(result.second_loss_names) == {"Milk", "Sponges", "Cheese"}

    def test_no_nan_in_plotted_range(self, result: Figure2Result):
        assert not any(math.isnan(v) for v in result.stability)

    def test_default_case_generated_when_omitted(self):
        result = run_figure2(seed=11)
        assert result.months[0] == 12

    def test_custom_month_range(self, case_study):
        result = run_figure2(
            case=case_study, config=ExperimentConfig(first_month=16, last_month=22)
        )
        assert result.months == [16, 18, 20, 22]
