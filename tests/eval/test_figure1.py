"""Tests for repro.eval.figure1 — experiment E1."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.eval.figure1 import Figure1Result, run_figure1
from repro.eval.variance import figure1_variance


@pytest.fixture(scope="module")
def result(request) -> Figure1Result:
    dataset = request.getfixturevalue("small_dataset")
    return run_figure1(dataset.bundle, seed=0)


class TestFigure1:
    def test_month_axis_matches_paper(self, result: Figure1Result):
        assert result.months() == [12, 14, 16, 18, 20, 22, 24]

    def test_metadata(self, result: Figure1Result):
        assert result.onset_month == 18
        assert result.window_months == 2
        assert result.alpha == 2.0

    def test_rows_align_both_series(self, result: Figure1Result):
        rows = result.rows()
        assert [month for month, __, __ in rows] == result.months()
        for __, stab, rfm in rows:
            assert 0.0 <= stab <= 1.0
            assert 0.0 <= rfm <= 1.0

    def test_pre_onset_near_chance(self, result: Figure1Result):
        # Before defection there is no signal: both models hover near 0.5.
        for month in (12, 14, 16):
            assert abs(result.stability.at_month(month) - 0.5) < 0.25
            assert abs(result.rfm.at_month(month) - 0.5) < 0.25

    def test_stability_detects_soon_after_onset(self):
        """Paper: AUROC 0.79 two months after the onset.  Over five
        dataset seeds (80 + 80 customers each) it lies within two seed
        standard deviations of the mean, that spread stays small, and the
        mean stays above 0.7."""
        summary = figure1_variance(seeds=(1, 2, 3, 4, 5), n_loyal=80, n_churners=80)
        mean, std = summary.stability_mean[20], summary.stability_std[20]
        assert mean > 0.7
        assert std < 0.05
        assert abs(mean - 0.79) <= 2 * std

    def test_detection_improves_over_defection_period(self, result: Figure1Result):
        assert result.stability.at_month(24) > result.stability.at_month(18)
        assert result.rfm.at_month(24) > result.rfm.at_month(18)

    def test_rfm_also_detects_eventually(self, result: Figure1Result):
        # Paper: "our model and the RFM model have similar performances".
        assert result.rfm.at_month(24) > 0.65

    def test_post_onset_mean_gap_is_moderate(self, result: Figure1Result):
        post = [20, 22, 24]
        stab = np.mean([result.stability.at_month(m) for m in post])
        rfm = np.mean([result.rfm.at_month(m) for m in post])
        assert abs(stab - rfm) < 0.35

    def test_deterministic(self, small_dataset, result: Figure1Result):
        again = run_figure1(small_dataset.bundle, seed=0)
        assert again.stability.values() == result.stability.values()
        assert again.rfm.values() == result.rfm.values()

    def test_custom_month_range(self, small_dataset):
        narrow = run_figure1(
            small_dataset.bundle,
            seed=0,
            config=ExperimentConfig(first_month=18, last_month=22),
        )
        assert narrow.months() == [18, 20, 22]
