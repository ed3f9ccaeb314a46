"""Tests for repro.eval.protocol."""

from __future__ import annotations

import pytest

from repro.baselines.rfm import RFMModel
from repro.baselines.rules import RandomBaseline, RecencyRule
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.windowing import WindowGrid
from repro.errors import ConfigError, EvaluationError
from repro.eval.protocol import EvaluationProtocol


@pytest.fixture(scope="module")
def protocol(request) -> EvaluationProtocol:
    dataset = request.getfixturevalue("tiny_dataset")
    return EvaluationProtocol(dataset.bundle)


class TestConstruction:
    def test_invalid_month_range(self, tiny_dataset):
        with pytest.raises(ConfigError):
            EvaluationProtocol(
                tiny_dataset.bundle,
                config=ExperimentConfig(first_month=20, last_month=10),
            )


class TestEvaluationWindows:
    def test_paper_range(self, tiny_dataset, protocol):
        config = ExperimentConfig(window_months=2)
        model = StabilityModel(tiny_dataset.calendar, config=config)
        pairs = protocol.evaluation_windows(model)
        assert [month for __, month in pairs] == [12, 14, 16, 18, 20, 22, 24]

    def test_out_of_range_raises(self, tiny_dataset):
        protocol = EvaluationProtocol(
            tiny_dataset.bundle, config=ExperimentConfig(first_month=3, last_month=3)
        )
        config = ExperimentConfig(window_months=2)
        model = StabilityModel(tiny_dataset.calendar, config=config)
        with pytest.raises(EvaluationError):
            protocol.evaluation_windows(model)


class TestStabilityEvaluation:
    def test_series_shape(self, tiny_dataset, protocol):
        model = StabilityModel(tiny_dataset.calendar).fit(tiny_dataset.log)
        series = protocol.evaluate_stability_model(model)
        assert series.name == "stability"
        assert series.months() == [12, 14, 16, 18, 20, 22, 24]
        assert all(0.0 <= v <= 1.0 for v in series.values())

    def test_detection_rises_after_onset(self, tiny_dataset, protocol):
        model = StabilityModel(tiny_dataset.calendar).fit(tiny_dataset.log)
        series = protocol.evaluate_stability_model(model)
        pre = series.at_month(14)
        post = series.at_month(22)
        assert post > pre
        assert post > 0.7

    def test_at_month_missing_raises(self, tiny_dataset, protocol):
        model = StabilityModel(tiny_dataset.calendar).fit(tiny_dataset.log)
        series = protocol.evaluate_stability_model(model)
        with pytest.raises(EvaluationError):
            series.at_month(13)


class TestWindowScorerEvaluation:
    def test_rfm_series(self, tiny_dataset, protocol):
        train, test = protocol.train_test_split(seed=1)
        rfm = RFMModel(tiny_dataset.calendar)
        series = protocol.evaluate_window_scorer(rfm, "rfm", train, test)
        assert series.name == "rfm"
        assert len(series.points) == 7
        assert all(0.0 <= v <= 1.0 for v in series.values())


class TestRuleEvaluation:
    def test_recency_rule_series(self, tiny_dataset, protocol):
        grid = WindowGrid.monthly(tiny_dataset.calendar, 2)
        series = protocol.evaluate_rule(RecencyRule(grid), "recency")
        assert len(series.points) == 7

    def test_random_rule_near_chance(self, tiny_dataset, protocol):
        series = protocol.evaluate_rule(RandomBaseline(seed=0), "random")
        assert all(0.1 < v < 0.9 for v in series.values())

    def test_rule_with_empty_month_range_raises(self, tiny_dataset):
        narrow = EvaluationProtocol(
            tiny_dataset.bundle, config=ExperimentConfig(first_month=13, last_month=13)
        )
        with pytest.raises(EvaluationError):
            narrow.evaluate_rule(RandomBaseline(seed=0), "random")


class TestTrainTestSplit:
    def test_disjoint_and_covering(self, tiny_dataset, protocol):
        train, test = protocol.train_test_split(seed=0)
        assert not set(train) & set(test)
        assert sorted(train + test) == tiny_dataset.cohorts.all_customers()

    def test_stratified(self, tiny_dataset, protocol):
        train, test = protocol.train_test_split(test_fraction=0.5, seed=0)
        churners = tiny_dataset.cohorts.churners
        assert sum(1 for c in train if c in churners) == 6
        assert sum(1 for c in test if c in churners) == 6

    def test_both_sides_nonempty_even_for_extreme_fraction(self, protocol):
        train, test = protocol.train_test_split(test_fraction=0.01, seed=0)
        assert train and test

    def test_invalid_fraction(self, protocol):
        with pytest.raises(ConfigError):
            protocol.train_test_split(test_fraction=1.0)

    def test_deterministic(self, protocol):
        assert protocol.train_test_split(seed=5) == protocol.train_test_split(seed=5)
