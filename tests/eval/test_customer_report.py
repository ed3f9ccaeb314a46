"""Tests for repro.eval.customer_report."""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.errors import ConfigError, DataError
from repro.eval.customer_report import build_customer_report, render_customer_report


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("small_dataset")
    config = ExperimentConfig(window_months=2)
    model = StabilityModel(dataset.calendar, config=config).fit(dataset.log)
    return dataset, model


class TestBuildCustomerReport:
    def test_churner_report_has_drops_and_forecast(self, fitted):
        dataset, model = fitted
        churner = sorted(dataset.cohorts.churners)[0]
        report = build_customer_report(model, dataset.log, churner)
        assert report.customer_id == churner
        assert len(report.months) == model.n_windows
        assert report.drops  # an injected churner must show drops
        assert report.forecast is not None
        assert report.n_receipts == len(dataset.log.history(churner))
        assert report.total_spend > 0

    def test_loyal_report_mostly_clean(self, fitted):
        dataset, model = fitted
        loyal = sorted(dataset.cohorts.loyal)[0]
        report = build_customer_report(model, dataset.log, loyal, drop_threshold=0.3)
        # A loyal customer should show at most incidental drops at a high
        # threshold.
        assert len(report.drops) <= 2

    def test_unfitted_customer_rejected(self, fitted):
        dataset, model = fitted
        with pytest.raises(DataError):
            build_customer_report(model, dataset.log, 10_000)

    def test_invalid_threshold(self, fitted):
        dataset, model = fitted
        with pytest.raises(ConfigError):
            build_customer_report(model, dataset.log, 0, drop_threshold=0.0)

    def test_drop_months_align_with_trajectory(self, fitted):
        dataset, model = fitted
        churner = sorted(dataset.cohorts.churners)[1]
        report = build_customer_report(model, dataset.log, churner)
        trajectory = model.trajectory(churner)
        expected = {model.window_month(k) for k in trajectory.drops(0.1)}
        assert set(report.drops) == expected


class TestRenderCustomerReport:
    def test_renders_all_sections(self, fitted):
        dataset, model = fitted
        churner = sorted(dataset.cohorts.churners)[0]
        report = build_customer_report(model, dataset.log, churner)
        text = render_customer_report(report, dataset.catalog)
        assert f"customer {churner}" in text
        assert "stability trajectory" in text
        assert "detected drops:" in text
        assert "trend:" in text
        assert "RFM at latest window:" in text

    def test_loyal_render_says_no_drops(self, fitted):
        dataset, model = fitted
        # Find a loyal customer with zero drops at the default threshold.
        for loyal in sorted(dataset.cohorts.loyal):
            report = build_customer_report(model, dataset.log, loyal)
            if not report.drops:
                text = render_customer_report(report, dataset.catalog)
                assert "no stability drops detected" in text
                return
        pytest.skip("every loyal customer had an incidental drop")

    def test_segment_names_resolved(self, fitted):
        dataset, model = fitted
        churner = sorted(dataset.cohorts.churners)[0]
        report = build_customer_report(model, dataset.log, churner)
        text = render_customer_report(report, dataset.catalog, top_k=2)
        # At least one drop line should name a real catalog segment.
        names = [s.name for s in dataset.catalog.segments()]
        assert any(name in text for name in names)
