"""Cross-module integration flows beyond the core pipeline.

Each test chains several subsystems the way the examples do, pinning that
the seams hold: loyalty labels feeding the evaluation, quality profiling
feeding the generator's output, calibration sitting on top of model
scores, and the characterization / forecasting layers consuming fitted
trajectories.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import StabilityModel
from repro.core.trend import forecast_stability, rank_by_risk
from repro.data import DatasetBundle, TransactionLog, build_cohorts
from repro.data.quality import profile_log
from repro.eval.protocol import EvaluationProtocol
from repro.ml.calibration import PlattCalibrator, expected_calibration_error


class TestLoyaltyToEvaluation:
    def test_behavioural_labels_support_full_figure1(self, small_dataset):
        """Derived cohorts must drive the standard protocol end to end."""
        cohorts = build_cohorts(
            small_dataset.log,
            small_dataset.calendar,
            outcome_start_month=18,
            drop_threshold=0.8,
        )
        bundle = DatasetBundle.checked(
            log=small_dataset.log.filter_customers(cohorts.all_customers()),
            catalog=small_dataset.catalog,
            calendar=small_dataset.calendar,
            cohorts=cohorts,
        )
        protocol = EvaluationProtocol(bundle)
        model = StabilityModel(bundle.calendar).fit(bundle.log)
        series = protocol.evaluate_stability_model(
            model, cohorts.all_customers()
        )
        # Behavioural churners shop less AND lose items; the stability
        # model must separate them from the behavioural loyals too.
        assert series.at_month(24) > 0.7


class TestQualityOnGeneratedAndCorrupted:
    def test_generated_data_passes_structural_checks(self, tiny_dataset):
        report = profile_log(tiny_dataset.log, calendar=tiny_dataset.calendar)
        assert report.n_duplicate_receipts == 0
        assert report.n_empty_baskets == 0
        assert report.empty_months == []

    def test_corruption_is_caught(self, tiny_dataset):
        corrupted = TransactionLog(tiny_dataset.log)
        first = tiny_dataset.log.history(tiny_dataset.log.customers()[0])[0]
        corrupted.add(first)  # duplicate receipt
        report = profile_log(corrupted)
        assert report.n_duplicate_receipts >= 1
        assert not report.is_clean


class TestCalibrationOnModelScores:
    def test_platt_improves_model_score_calibration(self, small_dataset):
        protocol = EvaluationProtocol(small_dataset.bundle)
        fit_ids, eval_ids = protocol.train_test_split(seed=3)
        model = StabilityModel(small_dataset.calendar).fit(small_dataset.log)
        window = 10  # month 22

        def vectors(ids):
            scores = model.churn_scores(window, ids)
            return (
                small_dataset.cohorts.label_vector(ids),
                np.asarray([scores[c] for c in ids]),
            )

        fit_y, fit_s = vectors(fit_ids)
        eval_y, eval_s = vectors(eval_ids)
        calibrated = PlattCalibrator().fit(fit_s, fit_y).transform(eval_s)
        assert expected_calibration_error(
            eval_y, calibrated
        ) < expected_calibration_error(eval_y, eval_s)


class TestForecastOnFittedPopulation:
    def test_risk_ranking_prefers_churners(self, small_dataset):
        model = StabilityModel(small_dataset.calendar).fit(small_dataset.log)
        decision_window = 10  # month 22
        from repro.errors import ConfigError

        forecasts = []
        for customer in model.customers():
            try:
                forecasts.append(
                    forecast_stability(
                        model.trajectory(customer),
                        beta=0.5,
                        upto_window=decision_window,
                    )
                )
            except ConfigError:
                continue  # fewer than two defined stability values
        ranked = rank_by_risk(forecasts)
        top = [f.customer_id for f in ranked[:10]]
        churner_share = np.mean(
            [small_dataset.cohorts.is_churner(c) for c in top]
        )
        assert churner_share >= 0.7
