"""Tests for repro.baselines.rfm (the RFM baseline model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rfm import FEATURE_NAMES
from repro.baselines.rfm import RFMModel
from repro.config import ExperimentConfig
from repro.errors import ConfigError, NotFittedError
from repro.ml.metrics import auroc


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("small_dataset")
    model = RFMModel(dataset.calendar, config=ExperimentConfig(window_months=2))
    window_index = 10  # ends at month 22, well after onset
    model.fit(dataset.log, dataset.cohorts, window_index)
    return dataset, model, window_index


class TestRFMModel:
    def test_construction(self, small_dataset):
        model = RFMModel(small_dataset.calendar, config=ExperimentConfig(window_months=2))
        assert model.n_windows == 14
        assert model.window_month(0) == 2

    def test_invalid_window_months(self, small_dataset):
        with pytest.raises(ConfigError):
            RFMModel(small_dataset.calendar, config=ExperimentConfig(window_months=0))

    def test_unfitted_raises(self, small_dataset):
        model = RFMModel(small_dataset.calendar)
        with pytest.raises(NotFittedError):
            model.churn_scores(small_dataset.log, [0])
        with pytest.raises(NotFittedError):
            model.coefficients

    def test_scores_are_probabilities(self, fitted):
        dataset, model, __ = fitted
        scores = model.churn_scores(dataset.log, dataset.log.customers())
        values = np.asarray(list(scores.values()))
        assert ((values >= 0) & (values <= 1)).all()

    def test_detects_churners_after_onset(self, fitted):
        dataset, model, __ = fitted
        customers = dataset.cohorts.all_customers()
        scores = model.churn_scores(dataset.log, customers)
        y = dataset.cohorts.label_vector(customers)
        s = np.asarray([scores[c] for c in customers])
        assert auroc(y, s) > 0.6  # in-sample, post-onset: must beat chance

    def test_coefficients_shape(self, fitted):
        __, model, __ = fitted
        assert model.coefficients.shape == (len(FEATURE_NAMES),)

    def test_score_at_other_window(self, fitted):
        dataset, model, __ = fitted
        scores = model.churn_scores(dataset.log, [0, 1], window_index=5)
        assert set(scores) == {0, 1}

    def test_fit_on_subset(self, small_dataset):
        model = RFMModel(small_dataset.calendar)
        train = small_dataset.cohorts.all_customers()[::2]
        model.fit(small_dataset.log, small_dataset.cohorts, 10, customers=train)
        scores = model.churn_scores(small_dataset.log, [0])
        assert 0 in scores

    def test_pre_onset_scores_near_chance(self, small_dataset):
        # Before defection starts, RFM has nothing to separate on.
        model = RFMModel(small_dataset.calendar, config=ExperimentConfig(window_months=2))
        window_index = 6  # ends at month 14, before onset at 18
        model.fit(small_dataset.log, small_dataset.cohorts, window_index)
        customers = small_dataset.cohorts.all_customers()
        scores = model.churn_scores(small_dataset.log, customers)
        y = small_dataset.cohorts.label_vector(customers)
        s = np.asarray([scores[c] for c in customers])
        assert auroc(y, s) < 0.75
