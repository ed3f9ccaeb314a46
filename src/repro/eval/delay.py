"""Detection-delay analysis.

The paper claims the stability model's "identification takes place in the
first months of the customer defection" (Section 3.1).  This module
quantifies that: at an operating threshold ``beta`` calibrated to a target
false-alarm rate on the loyal cohort, how many months after each churner's
ground-truth onset does the first alarm fire?

Outputs the delay distribution (median / mean / per-customer), the recall
(churners ever detected) and the realised false-alarm rate — the numbers a
retailer needs to size a retention programme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.detector import ThresholdDetector
from repro.core.model import StabilityModel
from repro.data.validation import DatasetBundle
from repro.errors import ConfigError, EvaluationError

__all__ = ["DelayAnalysis", "calibrate_beta", "detection_delay"]


@dataclass(frozen=True)
class DelayAnalysis:
    """Detection-delay statistics at one operating point."""

    beta: float
    target_false_alarm_rate: float
    realised_false_alarm_rate: float
    recall: float
    delays_months: dict[int, float]  # churner -> months from onset to alarm
    median_delay_months: float
    mean_delay_months: float

    @property
    def n_detected(self) -> int:
        return len(self.delays_months)


def calibrate_beta(
    model: StabilityModel,
    loyal_customers: list[int],
    target_false_alarm_rate: float,
    first_month: int = 12,
) -> float:
    """Largest ``beta`` whose loyal false-alarm rate stays at the target.

    Sweeps the candidate thresholds implied by the loyal cohort's own
    post-burn-in stability values (any beta between two consecutive values
    behaves identically), and returns the most sensitive threshold that
    keeps the fraction of loyal customers ever alarmed at or below
    ``target_false_alarm_rate``.

    Caveat: the paper's decision rule alarms at ``stability <= beta``, so
    a loyal customer with a zero-stability window (an empty 2-month
    window) alarms even at ``beta = 0`` — a target rate of exactly 0 is
    then infeasible and the realised rate will reflect those customers.
    """
    if not 0.0 <= target_false_alarm_rate < 1.0:
        raise ConfigError(
            f"target_false_alarm_rate must be in [0, 1), got {target_false_alarm_rate}"
        )
    if not loyal_customers:
        raise EvaluationError("calibration needs at least one loyal customer")
    # A loyal customer alarms at beta >= their minimum stability; the
    # false-alarm rate at beta is the fraction of minima <= beta.
    minima = []
    first_window = next(
        (k for k in range(model.n_windows) if model.window_month(k) >= first_month),
        model.n_windows,
    )
    for customer in loyal_customers:
        values = [
            record.stability
            for record in model.trajectory(customer).records
            if record.window.index >= first_window and record.defined
        ]
        minima.append(min(values) if values else 1.0)
    minima_sorted = sorted(minima)
    budget = int(np.floor(target_false_alarm_rate * len(minima)))
    if budget == 0:
        # No false alarms allowed: beta must sit strictly below every minimum.
        return max(0.0, minima_sorted[0] - 1e-9)
    return max(0.0, minima_sorted[budget] - 1e-9)


def detection_delay(
    bundle: DatasetBundle,
    window_months: int = 2,
    alpha: float = 2.0,
    target_false_alarm_rate: float = 0.05,
    first_month: int = 12,
) -> DelayAnalysis:
    """Run the full delay analysis on a dataset bundle."""
    cohorts = bundle.cohorts
    loyal = sorted(cohorts.loyal)
    churners = sorted(cohorts.churners)
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    model = StabilityModel(bundle.calendar, config=config).fit(
        bundle.log, loyal + churners
    )

    beta = calibrate_beta(
        model, loyal, target_false_alarm_rate, first_month=first_month
    )
    detector = ThresholdDetector(beta)
    first_window = next(
        (k for k in range(model.n_windows) if model.window_month(k) >= first_month),
        model.n_windows,
    )

    false_alarms = sum(
        1
        for customer in loyal
        if detector.first_alarm(model.trajectory(customer), first_window) is not None
    )

    delays: dict[int, float] = {}
    for customer in churners:
        alarm = detector.first_alarm(model.trajectory(customer), first_window)
        if alarm is None:
            continue
        onset = cohorts.onset_of(customer)
        alarm_month = model.window_month(alarm.window_index)
        delays[customer] = float(alarm_month - onset)

    delay_values = list(delays.values())
    return DelayAnalysis(
        beta=beta,
        target_false_alarm_rate=target_false_alarm_rate,
        realised_false_alarm_rate=false_alarms / len(loyal) if loyal else 0.0,
        recall=len(delays) / len(churners) if churners else 0.0,
        delays_months=delays,
        median_delay_months=float(np.median(delay_values)) if delay_values else float("nan"),
        mean_delay_months=float(np.mean(delay_values)) if delay_values else float("nan"),
    )
