"""Tests for repro.core.trend (stability-trend forecasting)."""

from __future__ import annotations

import pytest

from repro.core.trend import forecast_stability, rank_by_risk
from repro.errors import ConfigError
from tests.core.histories import trajectory_of


def _declining_trajectory():
    # Ten habitual items, progressively dropped one per window from k=4:
    # stability declines roughly linearly.
    full = set(range(10))
    sets = [full] * 4
    for lost in range(1, 7):
        sets.append(set(range(10 - lost)))
    return trajectory_of(sets)


class TestForecast:
    def test_declining_customer_negative_slope(self):
        forecast = forecast_stability(_declining_trajectory(), beta=0.3)
        assert forecast.slope < 0
        assert forecast.n_points >= 2

    def test_crossing_horizon_predicted(self):
        forecast = forecast_stability(_declining_trajectory(), beta=0.3)
        assert forecast.windows_to_threshold is not None
        assert forecast.windows_to_threshold > 0

    def test_stable_customer_never_crosses(self):
        trajectory = trajectory_of([{1, 2}] * 8, customer_id=2)
        forecast = forecast_stability(trajectory, beta=0.5)
        assert forecast.slope == pytest.approx(0.0)
        assert forecast.windows_to_threshold is None

    def test_already_below_threshold_is_zero_horizon(self):
        trajectory = trajectory_of([{1, 2}, {1, 2}, {1, 2}, set(), set()], customer_id=3)
        forecast = forecast_stability(trajectory, beta=0.5, lookback=2)
        assert forecast.windows_to_threshold == 0.0

    def test_predicted_stability_clipped(self):
        forecast = forecast_stability(_declining_trajectory(), beta=0.3)
        assert 0.0 <= forecast.predicted_stability(100) <= 1.0
        assert forecast.predicted_stability(0) == pytest.approx(
            forecast.level, abs=1e-12
        )

    def test_predicted_stability_negative_horizon_rejected(self):
        forecast = forecast_stability(_declining_trajectory())
        with pytest.raises(ConfigError):
            forecast.predicted_stability(-1)

    def test_upto_window_backtest(self):
        trajectory = _declining_trajectory()
        early = forecast_stability(trajectory, upto_window=5)
        assert early.last_window <= 5

    def test_lookback_validation(self):
        with pytest.raises(ConfigError):
            forecast_stability(_declining_trajectory(), lookback=1)

    def test_insufficient_history_rejected(self):
        trajectory = trajectory_of([{1}])
        with pytest.raises(ConfigError, match="at least 2"):
            forecast_stability(trajectory)

    def test_forecast_anticipates_actual_crossing(self):
        """Backtest: the forecast made mid-decline points at the later
        actual crossing window."""
        trajectory = _declining_trajectory()
        beta = 0.5
        forecast = forecast_stability(trajectory, beta=beta, upto_window=6)
        actual_cross = next(
            (
                record.window.index
                for record in trajectory.records
                if record.defined and record.stability <= beta
            ),
            None,
        )
        assert forecast.windows_to_threshold is not None
        if actual_cross is not None:
            predicted_window = forecast.last_window + forecast.windows_to_threshold
            assert abs(predicted_window - actual_cross) <= 3


class TestRankByRisk:
    def test_crossing_before_stable(self):
        declining = forecast_stability(_declining_trajectory(), beta=0.3)
        stable = forecast_stability(
            trajectory_of([{1}] * 8, customer_id=9), beta=0.3
        )
        ranked = rank_by_risk([stable, declining])
        assert ranked[0].customer_id == declining.customer_id

    def test_max_horizon_filters(self):
        declining = forecast_stability(_declining_trajectory(), beta=0.3)
        assert declining.windows_to_threshold is not None
        ranked = rank_by_risk(
            [declining], max_horizon=declining.windows_to_threshold - 0.5
        )
        assert ranked == []

    def test_empty_input(self):
        assert rank_by_risk([]) == []
