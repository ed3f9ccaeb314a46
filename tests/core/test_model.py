"""Tests for repro.core.model (StabilityModel facade)."""

from __future__ import annotations

import math

import pytest

from repro.config import ExperimentConfig
from repro.core.detector import ThresholdDetector
from repro.core.model import StabilityModel
from repro.core.significance import (
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
)
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, DataError, NotFittedError
from tests.core import oracle


@pytest.fixture()
def model(calendar, regular_log) -> StabilityModel:
    config = ExperimentConfig(window_months=2, alpha=2)
    return StabilityModel(calendar, config=config).fit(regular_log)


class TestConstruction:
    def test_grid_matches_calendar(self, calendar):
        model = StabilityModel(calendar, config=ExperimentConfig(window_months=2))
        assert model.n_windows == 14

    def test_invalid_window_rejected(self, calendar):
        with pytest.raises(ConfigError):
            StabilityModel(calendar, config=ExperimentConfig(window_months=0))

    def test_custom_significance_overrides_alpha(self, calendar):
        model = StabilityModel(
            calendar,
            significance=FrequencyRatioSignificance(),
            config=ExperimentConfig(alpha=5.0),
        )
        assert model.significance.name == "frequency-ratio"

    def test_default_alpha_two(self, calendar):
        model = StabilityModel(calendar)
        assert model.significance.alpha == 2.0  # type: ignore[attr-defined]

    def test_negative_item_weight_rejected_at_construction(self, calendar):
        with pytest.raises(ConfigError, match="item_weights must be positive"):
            StabilityModel(calendar, item_weights={1: 2.0, 7: -0.5})


class TestFit:
    def test_unfitted_access_raises(self, calendar):
        model = StabilityModel(calendar)
        assert not model.is_fitted
        with pytest.raises(NotFittedError):
            model.customers()

    def test_fit_all_customers(self, model):
        assert model.is_fitted
        assert model.customers() == [1]

    def test_fit_subset(self, calendar, regular_log):
        log = TransactionLog(regular_log)
        log.add(Basket.of(customer_id=2, day=0, items=[9]))
        model = StabilityModel(calendar).fit(log, customers=[2])
        assert model.customers() == [2]
        with pytest.raises(DataError, match="not fitted"):
            model.trajectory(1)

    def test_unknown_customer_in_fit_raises(self, calendar, regular_log):
        with pytest.raises(DataError, match="unknown customer"):
            StabilityModel(calendar).fit(regular_log, customers=[999])

    def test_refit_replaces_state(self, calendar, regular_log):
        model = StabilityModel(calendar).fit(regular_log)
        log2 = TransactionLog([Basket.of(customer_id=8, day=0, items=[1])])
        model.fit(log2)
        assert model.customers() == [8]


class TestQueries:
    def test_regular_customer_is_fully_stable(self, model):
        trajectory = model.trajectory(1)
        assert math.isnan(trajectory.at(0).stability)
        for k in range(1, model.n_windows):
            assert trajectory.at(k).stability == 1.0

    def test_stability_at(self, model):
        assert model.stability_at(1, 3) == 1.0

    def test_churn_scores_all_customers(self, model):
        scores = model.churn_scores(window_index=3)
        assert scores == {1: 0.0}

    def test_churn_scores_subset(self, model):
        assert model.churn_scores(3, customers=[1]) == {1: 0.0}

    def test_window_month(self, model):
        assert model.window_month(0) == 2
        assert model.window_month(13) == 28

    def test_explain_top_k_truncates(self, calendar):
        log = TransactionLog()
        for month in range(6):
            day = calendar.month_start_day(month)
            items = [1, 2, 3] if month < 4 else [1]
            log.add(Basket.of(customer_id=1, day=day, items=items))
        model = StabilityModel(calendar, config=ExperimentConfig(window_months=2)).fit(log)
        explanation = model.explain(1, 2, top_k=1)
        assert len(explanation.missing) == 1

    def test_detect_returns_first_alarms(self, calendar):
        log = TransactionLog()
        for month in range(28):
            day = calendar.month_start_day(month)
            items = [1, 2] if month < 18 else [1]
            log.add(Basket.of(customer_id=1, day=day, items=items))
        model = StabilityModel(calendar, config=ExperimentConfig(window_months=2)).fit(log)
        alarms = model.detect(beta=0.7)
        assert len(alarms) == 1
        assert model.window_month(alarms[0].window_index) == 20

    def test_detect_no_alarms_for_stable(self, model):
        assert model.detect(beta=0.5) == []


def _churn_log(calendar) -> TransactionLog:
    log = TransactionLog()
    for month in range(28):
        day = calendar.month_start_day(month)
        items = [1, 2] if month < 18 else [1]
        log.add(Basket.of(customer_id=1, day=day, items=items))
        log.add(Basket.of(customer_id=2, day=day, items=[3, 4]))
    return log


def _unions(model, log, customer):
    """The customer's ``u_k`` on the model's grid."""
    boundaries = list(model.grid.boundaries)
    baskets = [(b.day, set(b.items)) for b in log.history(customer)]
    return oracle.windowed_unions(baskets, boundaries, 0)


def _assert_matches_oracle(model, log, rule, counting="paper", weights=None):
    for customer in model.customers():
        unions = _unions(model, log, customer)
        trajectory = model.trajectory(customer)
        for k in range(model.n_windows):
            want = oracle.stability(unions, k, rule, counting, weights)
            got = trajectory.at(k).stability
            if math.isnan(want):
                assert math.isnan(got), (customer, k)
            else:
                assert got == pytest.approx(want, rel=1e-12), (customer, k)


class TestBackends:
    """The one kernel, against the paper-equation oracle (``oracle.py``),
    the per-customer reference these tests compare with.

    A name that says a case requires the incremental engine predates the
    one kernel, which now takes every such case: the test checks its
    scores against the oracle.
    """

    def test_unknown_backend_rejected(self, calendar):
        for backend in ("gpu", "incremental"):
            with pytest.raises(ConfigError, match="backend"):
                StabilityModel(calendar, config=ExperimentConfig(backend=backend))

    def test_custom_significance_requires_incremental(self, calendar):
        log = _churn_log(calendar)
        for significance, rule in (
            (FrequencyRatioSignificance(), oracle.frequency_ratio),
            (LinearSignificance(), oracle.linear),
            (ExponentialSignificance(4.0), 4.0),
        ):
            model = StabilityModel(calendar, significance=significance).fit(log)
            _assert_matches_oracle(model, log, rule)

    def test_custom_counting_requires_incremental(self, calendar):
        log = _churn_log(calendar)
        model = StabilityModel(
            calendar, config=ExperimentConfig(counting="since-first-seen")
        ).fit(log)
        _assert_matches_oracle(model, log, 2.0, counting="since-first-seen")

    def test_item_weights_require_incremental(self, calendar):
        log = _churn_log(calendar)
        weights = {1: 3.0, 4: 0.5}
        model = StabilityModel(calendar, item_weights=weights).fit(log)
        _assert_matches_oracle(model, log, 2.0, weights=weights)

    def test_n_jobs_requires_batch(self, calendar):
        with pytest.raises(ConfigError):
            StabilityModel(
                calendar, config=ExperimentConfig(backend="incremental", n_jobs=2)
            )

    @pytest.mark.parametrize("backend", ["batch"])
    def test_trajectories_match_incremental(self, calendar, backend):
        log = _churn_log(calendar)
        model = StabilityModel(
            calendar, config=ExperimentConfig(window_months=2, backend=backend)
        ).fit(log)
        assert model.customers() == [1, 2]
        _assert_matches_oracle(model, log, 2.0)

    @pytest.mark.parametrize("backend", ["batch"])
    def test_churn_scores_and_detect_match(self, calendar, backend):
        log = _churn_log(calendar)
        model = StabilityModel(
            calendar, config=ExperimentConfig(window_months=2, backend=backend)
        ).fit(log)
        for k in range(model.n_windows):
            scores = model.churn_scores(k)
            assert set(scores) == {1, 2}
            for customer, score in scores.items():
                assert score == model.trajectory(customer).churn_score(k)
        first_window = next(
            k for k in range(model.n_windows) if model.window_month(k) >= 12
        )
        want = []
        for customer in model.customers():
            alarm = ThresholdDetector(0.7).first_alarm(
                model.trajectory(customer), first_window=first_window
            )
            if alarm is not None:
                want.append(alarm)
        assert model.detect(beta=0.7) == want

    def test_batch_explain_matches_incremental(self, calendar):
        log = _churn_log(calendar)
        model = StabilityModel(
            calendar, config=ExperimentConfig(window_months=2, backend="batch")
        ).fit(log)
        k = next(
            k for k in range(model.n_windows) if model.stability_at(1, k) < 1.0
        )
        unions = _unions(model, log, 1)
        explained = model.explain(1, k)
        want = oracle.explanation(unions, k, 2.0, top_k=5)
        assert explained.stability == pytest.approx(
            oracle.stability(unions, k, 2.0), rel=1e-12
        )
        assert [m.item for m in explained.missing] == [item for item, _ in want]

    def test_batch_trajectory_is_cached(self, calendar):
        model = StabilityModel(calendar).fit(_churn_log(calendar))
        assert model.trajectory(1) is model.trajectory(1)

    def test_batch_unknown_customer(self, calendar):
        model = StabilityModel(calendar).fit(_churn_log(calendar))
        with pytest.raises(DataError, match="not fitted"):
            model.trajectory(999)

    def test_batch_unfitted_raises(self, calendar):
        model = StabilityModel(calendar)
        with pytest.raises(NotFittedError):
            model.customers()

    def test_parallel_fit_matches_serial(self, calendar):
        log = _churn_log(calendar)
        serial = StabilityModel(calendar).fit(log)
        parallel = StabilityModel(calendar, config=ExperimentConfig(n_jobs=2)).fit(log)
        for customer in serial.customers():
            for k in range(serial.n_windows):
                a = serial.stability_at(customer, k)
                b = parallel.stability_at(customer, k)
                assert (math.isnan(a) and math.isnan(b)) or a == b


class TestEndToEndDrop:
    def test_dropping_an_item_lowers_stability_and_names_it(self, calendar):
        log = TransactionLog()
        for month in range(28):
            day = calendar.month_start_day(month) + 1
            items = [1, 2, 3] if month < 20 else [2, 3]
            log.add(Basket.of(customer_id=4, day=day, items=items))
        model = StabilityModel(calendar, config=ExperimentConfig(window_months=2)).fit(log)
        # Item 1 vanishes from calendar month 20 => window [20,22) ends at 22.
        k = next(
            k for k in range(model.n_windows) if model.window_month(k) == 22
        )
        assert model.stability_at(4, k) < 1.0
        assert model.stability_at(4, k - 1) == 1.0
        explanation = model.explain(4, k)
        assert explanation.top_item is not None
        assert explanation.top_item.item == 1
