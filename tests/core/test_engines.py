"""repro.core.engines: the model's fit entry and column-built records."""

from __future__ import annotations

import math

import pytest

import repro.core.engines as engines
from repro.config import ExperimentConfig
from repro.core.batch import Scoring, stability_matrix
from repro.core.model import StabilityModel
from repro.core.significance import FrequencyRatioSignificance, LinearSignificance
from repro.core.windowing import windowed_history
from repro.data.population import PopulationFrame
from repro.errors import ConfigError
from tests.core import oracle
from tests.core.histories import history_log, model_of


class TestRegistry:
    def test_builtin_engines_registered(self):
        # One built-in kernel: "batch" is the default and the only legal
        # backend (every rule, counting scheme and weighting runs on it:
        # tests/core/test_model.py::TestBackends).
        assert ExperimentConfig().backend == "batch"
        assert ExperimentConfig(backend="batch").backend == "batch"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown backend 'gpu'"):
            ExperimentConfig(backend="gpu")


# Item 2 is first bought in window 2 and item 3 in window 5, so the two
# counting schemes differ; window 4 is empty.
LATE_ADOPTER = [{1}, {1}, {1, 2}, {2}, set(), {1, 2, 3}, {3}, {1, 3}]


def _assert_records_match_oracle(
    backend, rule, significance=None, counting="paper", weights=None
):
    """Fit LATE_ADOPTER through the model and check every column-built
    record, stability and full significance snapshot, against the oracle."""
    calendar, log = history_log(LATE_ADOPTER)
    model = StabilityModel(
        calendar,
        significance=significance,
        item_weights=weights,
        config=ExperimentConfig(window_months=1, counting=counting, backend=backend),
    ).fit(log)
    trajectory = model.trajectory(1)
    for k in range(len(LATE_ADOPTER)):
        record = trajectory.at(k)
        want = oracle.stability(LATE_ADOPTER, k, rule, counting, weights)
        if math.isnan(want):
            assert math.isnan(record.stability), k
        else:
            assert record.stability == pytest.approx(want, rel=1e-12), k
        scores = oracle.significances(LATE_ADOPTER, k, rule, counting, weights)
        assert set(record.significances) == set(scores), k
        for item, value in scores.items():
            assert record.significances[item] == pytest.approx(value, rel=1e-12)


class TestValidation:
    """A name that says an engine needs or refuses a case predates the one
    kernel, which takes every rule, counting scheme and weighting: the
    test checks the kernel's records for that case against the oracle."""

    def test_incremental_accepts_any_rule(self):
        _assert_records_match_oracle(
            "batch", oracle.linear, LinearSignificance(), "since-first-seen"
        )

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_require_exponential(self, name):
        for significance, rule in (
            (LinearSignificance(), oracle.linear),
            (FrequencyRatioSignificance(), oracle.frequency_ratio),
        ):
            _assert_records_match_oracle(name, rule, significance)

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_require_paper_counting(self, name):
        _assert_records_match_oracle(name, 2.0, counting="since-first-seen")

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_reject_item_weights(self, name):
        _assert_records_match_oracle(name, 2.0, weights={1: 2.0, 3: 0.25})

    def test_batch_accepts_parallel_fit(self, calendar):
        model = StabilityModel(
            calendar,
            significance=LinearSignificance(),
            item_weights={1: 2.0},
            config=ExperimentConfig(n_jobs=4, counting="since-first-seen"),
        )
        assert model.config.n_jobs == 4


class TestFitEntry:
    def test_model_fits_through_the_module_kernel(self, monkeypatch):
        # Tracing wraps engines.stability_matrix by name: the model must
        # look it up there, with the frame as the first argument.
        calls = []

        def recording(frame, *args, **kwargs):
            calls.append(frame)
            return stability_matrix(frame, *args, **kwargs)

        monkeypatch.setattr(engines, "stability_matrix", recording)
        model = model_of([{1}, {1}])
        assert len(calls) == 1 and isinstance(calls[0], PopulationFrame)
        assert model.stability_at(1, 1) == 1.0


class TestCustomerTrajectory:
    def test_windows_equal_the_log_path(self, small_dataset):
        config = ExperimentConfig()
        grid = config.grid(small_dataset.calendar)
        frame = PopulationFrame.from_log(small_dataset.log, grid)
        fit = stability_matrix(frame)
        for row in (0, frame.n_customers // 2, frame.n_customers - 1):
            customer = int(frame.customer_ids[row])
            built = engines.customer_trajectory(fit, row, Scoring())
            want = windowed_history(small_dataset.log.history(customer), grid)
            assert [r.window for r in built.records] == want
            assert built.customer_id == customer

    def test_snapshot_holds_every_item_bought_before(self):
        windows = [{1, 2}, {3}, set(), {1}]
        calendar, log = history_log(windows)
        fit = stability_matrix(
            PopulationFrame.from_log(log, ExperimentConfig(window_months=1).grid(calendar))
        )
        trajectory = engines.customer_trajectory(fit, 0, Scoring())
        for k in range(len(windows)):
            want = oracle.significances(windows, k, 2.0)
            got = trajectory.at(k).significances
            assert set(got) == set(want)
            for item, value in want.items():
                assert got[item] == pytest.approx(value, rel=1e-12)
