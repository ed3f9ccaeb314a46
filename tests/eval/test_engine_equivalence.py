"""End-to-end fit-path equivalence: one protocol, three fits, one ROC.

The kernel fits a cohort from the log, from the protocol's shared
:class:`~repro.data.population.PopulationFrame`, and sharded over two
worker processes.  Running the full evaluation protocol (ROC sweep over
every evaluation window) through each yields **bit-identical** ROC
months, AUROC values and churn scores on a randomized synthetic cohort
(exact ``==``: the rank statistic tolerates no drift).
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig
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
def models(randomized_bundle):
    """The cohort fitted three ways, by fit path."""
    config = ExperimentConfig(first_month=12, last_month=24)
    protocol = EvaluationProtocol(randomized_bundle, config=config)
    calendar = randomized_bundle.calendar
    return {
        "log": StabilityModel(calendar, config=config).fit(
            randomized_bundle.log
        ),
        "frame": StabilityModel(calendar, config=config).fit(protocol.frame()),
        "sharded": StabilityModel(
            calendar, config=config.evolve(n_jobs=2)
        ).fit(protocol.frame()),
    }


@pytest.fixture(scope="module")
def series_by_engine(randomized_bundle, models):
    config = ExperimentConfig(first_month=12, last_month=24)
    protocol = EvaluationProtocol(randomized_bundle, config=config)
    customers = randomized_bundle.cohorts.all_customers()
    return {
        path: protocol.evaluate_stability_model(model, customers)
        for path, model in models.items()
    }


def test_roc_months_identical(series_by_engine):
    reference = series_by_engine["log"]
    for path, series in series_by_engine.items():
        assert series.months() == reference.months(), path


def test_auroc_bit_identical_across_engines(series_by_engine):
    reference = {p.month: p.auroc for p in series_by_engine["log"].points}
    for path, series in series_by_engine.items():
        for point in series.points:
            assert point.auroc == reference[point.month], (path, point.month)


def test_churn_scores_agree_across_engines(randomized_bundle, models):
    customers = randomized_bundle.cohorts.all_customers()
    for window_index in (6, 9, 12):
        reference = models["log"].churn_scores(window_index, customers)
        for path, model in models.items():
            assert model.churn_scores(window_index, customers) == reference, path
