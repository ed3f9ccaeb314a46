"""End-to-end engine equivalence: one protocol, two engines, one ROC.

Satellite guarantee of the PopulationFrame refactor: running the full
evaluation protocol (ROC sweep over every evaluation window) through the
incremental and batch engines yields **bit-identical** ROC
months and AUROC values on a randomized synthetic cohort (exact ``==``,
the rank statistic tolerates no drift), with raw churn scores agreeing
to the codebase's established 1e-12 engine tolerance.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig
from repro.core.engines import available_engines
from repro.core.model import StabilityModel
from repro.eval.protocol import EvaluationProtocol
from repro.synth import ScenarioConfig, generate_dataset


@pytest.fixture(scope="module")
def randomized_bundle():
    """A fresh randomized cohort, distinct from the shared fixtures."""
    return generate_dataset(
        ScenarioConfig(n_loyal=15, n_churners=15, seed=20260805)
    ).bundle


@pytest.fixture(scope="module")
def series_by_engine(randomized_bundle):
    config = ExperimentConfig(first_month=12, last_month=24)
    protocol = EvaluationProtocol(randomized_bundle, config=config)
    customers = randomized_bundle.cohorts.all_customers()
    series = {}
    for backend in available_engines():
        model = StabilityModel.from_config(
            randomized_bundle.calendar, config.evolve(backend=backend)
        ).fit(protocol.frame())
        series[backend] = protocol.evaluate_stability_model(model, customers)
    return series


def test_all_engines_registered(series_by_engine):
    assert set(series_by_engine) == {"incremental", "batch"}


def test_roc_months_identical(series_by_engine):
    reference = series_by_engine["incremental"]
    for backend, series in series_by_engine.items():
        assert series.months() == reference.months(), backend


def test_auroc_bit_identical_across_engines(series_by_engine):
    reference = {
        p.month: p.auroc for p in series_by_engine["incremental"].points
    }
    for backend, series in series_by_engine.items():
        for point in series.points:
            assert point.auroc == reference[point.month], (
                backend,
                point.month,
            )


def test_churn_scores_agree_across_engines(randomized_bundle):
    config = ExperimentConfig()
    protocol = EvaluationProtocol(randomized_bundle, config=config)
    customers = randomized_bundle.cohorts.all_customers()
    models = {
        backend: StabilityModel.from_config(
            randomized_bundle.calendar, config.evolve(backend=backend)
        ).fit(protocol.frame())
        for backend in available_engines()
    }
    for window_index in (6, 9, 12):
        reference = models["incremental"].churn_scores(window_index, customers)
        for backend, model in models.items():
            scores = model.churn_scores(window_index, customers)
            assert scores.keys() == reference.keys()
            for customer_id, score in reference.items():
                assert scores[customer_id] == pytest.approx(score, abs=1e-12), (
                    backend,
                    customer_id,
                )
