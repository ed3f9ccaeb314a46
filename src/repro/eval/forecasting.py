"""Forward-looking evaluation: predicting *future* defection.

The paper's abstract claims the model "is able to identify customers that
are likely to defect in the future months".  This module backtests that
claim with the trend forecaster (:mod:`repro.core.trend`):

* at a forecast window (e.g. the window ending at month 20), fit each
  customer's recent stability trend using **only data up to that window**;
* score customers by predicted risk (imminence of the threshold
  crossing, falling back to the trend slope);
* evaluate the ranking against the churner labels — and, more stringently,
  against *actual future crossings* of the threshold in the remaining
  windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.trend import TrendForecast, forecast_stability
from repro.data.validation import DatasetBundle
from repro.errors import EvaluationError
from repro.ml.metrics import auroc

__all__ = ["ForecastEvaluation", "evaluate_forecasts"]


def _risk_score(forecast: TrendForecast, max_windows: float = 20.0) -> float:
    """Continuous risk in [0, 1]: sooner predicted crossing = higher risk.

    Customers with no predicted crossing get a small residual risk
    proportional to how steeply they decline (0 when flat or rising).
    """
    if forecast.windows_to_threshold is not None:
        imminence = 1.0 - min(forecast.windows_to_threshold, max_windows) / max_windows
        return 0.5 + 0.5 * imminence  # crossing predicted: risk in [0.5, 1]
    return float(np.clip(-forecast.slope * 2.0, 0.0, 0.45))


@dataclass(frozen=True)
class ForecastEvaluation:
    """Backtest of the trend forecaster at one forecast month."""

    forecast_month: int
    auroc_vs_labels: float
    auroc_vs_future_crossing: float
    n_customers: int
    n_future_crossers: int


def evaluate_forecasts(
    bundle: DatasetBundle,
    forecast_month: int = 20,
    beta: float = 0.5,
    lookback: int = 4,
    window_months: int = 2,
    alpha: float = 2.0,
) -> ForecastEvaluation:
    """Backtest trend forecasts made at ``forecast_month``.

    ``auroc_vs_labels`` scores the risk ranking against the cohort
    labels; ``auroc_vs_future_crossing`` scores it against the customers
    whose stability *actually* reached ``beta`` in a later window — the
    strictly forward-looking target.
    """
    customers = bundle.cohorts.all_customers()
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    model = StabilityModel(bundle.calendar, config=config).fit(
        bundle.log, customers
    )
    forecast_window = next(
        (
            k
            for k in range(model.n_windows)
            if model.window_month(k) == forecast_month
        ),
        None,
    )
    if forecast_window is None:
        raise EvaluationError(
            f"no {window_months}-month window ends at month {forecast_month}"
        )

    risks: dict[int, float] = {}
    future_cross: dict[int, int] = {}
    for customer in customers:
        trajectory = model.trajectory(customer)
        forecast = forecast_stability(
            trajectory, beta=beta, lookback=lookback, upto_window=forecast_window
        )
        risks[customer] = _risk_score(forecast)
        crossed = any(
            record.defined and record.stability <= beta
            for record in trajectory.records
            if record.window.index > forecast_window
        )
        future_cross[customer] = int(crossed)

    y_labels = bundle.cohorts.label_vector(customers)
    y_future = np.asarray([future_cross[c] for c in customers])
    scores = np.asarray([risks[c] for c in customers])
    if y_future.min() == y_future.max():
        raise EvaluationError(
            "future-crossing target is single-class; pick a different beta"
        )
    return ForecastEvaluation(
        forecast_month=forecast_month,
        auroc_vs_labels=auroc(y_labels, scores),
        auroc_vs_future_crossing=auroc(y_future, scores),
        n_customers=len(customers),
        n_future_crossers=int(y_future.sum()),
    )
