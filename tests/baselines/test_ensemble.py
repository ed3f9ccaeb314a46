"""Tests for repro.baselines.ensemble."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ensemble import RankAverageEnsemble, StabilityMember, rank_normalise
from repro.baselines.rfm import RFMModel
from repro.core.model import StabilityModel
from repro.errors import ConfigError
from repro.ml.metrics import auroc


class TestRankNormalise:
    def test_order_preserved(self):
        out = rank_normalise({1: 0.9, 2: 0.1, 3: 0.5})
        assert out[2] < out[3] < out[1]

    def test_range(self):
        out = rank_normalise({1: 5.0, 2: -3.0, 3: 0.0, 4: 99.0})
        assert min(out.values()) == 0.0
        assert max(out.values()) == 1.0

    def test_ties_get_midranks(self):
        out = rank_normalise({1: 0.5, 2: 0.5, 3: 1.0})
        assert out[1] == out[2]
        assert out[3] == 1.0

    def test_single_customer(self):
        assert rank_normalise({7: 3.2}) == {7: 0.5}

    def test_empty(self):
        assert rank_normalise({}) == {}

    def test_scale_invariance(self):
        base = {1: 0.1, 2: 0.4, 3: 0.9}
        scaled = {c: 100 * v + 7 for c, v in base.items()}
        assert rank_normalise(base) == rank_normalise(scaled)


class TestEnsemble:
    @pytest.fixture(scope="class")
    def fitted(self, request):
        dataset = request.getfixturevalue("small_dataset")
        window = 10  # ends month 22
        stability = StabilityModel(dataset.calendar, window_months=2)
        ensemble = RankAverageEnsemble(
            dataset.calendar,
            members=[
                StabilityMember(stability),
                RFMModel(dataset.calendar, window_months=2),
            ],
        )
        ensemble.fit(dataset.log, dataset.cohorts, window)
        return dataset, ensemble, window

    def test_protocol_duck_type(self, fitted):
        __, ensemble, __ = fitted
        assert ensemble.n_windows == 14
        assert ensemble.window_month(10) == 22

    def test_scores_in_unit_interval(self, fitted):
        dataset, ensemble, window = fitted
        scores = ensemble.churn_scores(
            dataset.log, dataset.cohorts.all_customers(), window
        )
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_ensemble_is_competitive(self, fitted):
        dataset, ensemble, window = fitted
        customers = dataset.cohorts.all_customers()
        y = dataset.cohorts.label_vector(customers)

        ensemble_scores = ensemble.churn_scores(dataset.log, customers, window)
        ensemble_auc = auroc(
            y, np.asarray([ensemble_scores[c] for c in customers])
        )
        # Members individually:
        member_aucs = []
        for member in ensemble.members:
            scores = member.churn_scores(dataset.log, customers, window)
            member_aucs.append(
                auroc(y, np.asarray([scores[c] for c in customers]))
            )
        assert ensemble_auc > min(member_aucs)
        assert ensemble_auc > 0.7

    def test_weights_shift_towards_member(self, fitted):
        dataset, ensemble, window = fitted
        customers = dataset.cohorts.all_customers()
        heavy_stability = RankAverageEnsemble(
            dataset.calendar,
            members=ensemble.members,
            weights=[10.0, 0.1],
        )
        scores_heavy = heavy_stability.churn_scores(dataset.log, customers, window)
        stability_scores = rank_normalise(
            ensemble.members[0].churn_scores(dataset.log, customers, window)
        )
        diffs = [abs(scores_heavy[c] - stability_scores[c]) for c in customers]
        assert max(diffs) < 0.1  # heavy weighting ~ the member itself

    def test_member_reads_the_fitted_customers_once(self, small_dataset):
        """Scoring n ids must not rebuild the fitted-customer list per id."""
        model = StabilityModel(small_dataset.calendar, window_months=2)
        member = StabilityMember(model).fit(small_dataset.log, small_dataset.cohorts, 0)
        calls = []
        fitted_customers = model.customers

        def counted() -> list[int]:
            calls.append(1)
            return fitted_customers()

        model.customers = counted  # type: ignore[method-assign]
        ids = small_dataset.cohorts.all_customers()
        scores = member.churn_scores(small_dataset.log, ids)
        assert list(scores) == list(ids)
        assert len(calls) == 1

    def test_validation(self, small_dataset):
        stability = StabilityMember(
            StabilityModel(small_dataset.calendar, window_months=2)
        )
        with pytest.raises(ConfigError, match="two members"):
            RankAverageEnsemble(small_dataset.calendar, members=[stability])
        with pytest.raises(ConfigError, match="weights"):
            RankAverageEnsemble(
                small_dataset.calendar,
                members=[stability, RFMModel(small_dataset.calendar)],
                weights=[1.0],
            )
        with pytest.raises(ConfigError, match="mismatched window grid"):
            RankAverageEnsemble(
                small_dataset.calendar,
                members=[stability, RFMModel(small_dataset.calendar, window_months=1)],
            )
