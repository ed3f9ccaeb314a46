"""Turning the stability score into a budgetable churn probability.

The churn score ``1 - stability`` ranks customers well, but "risk 0.4"
does not mean "40% of such customers churn" — thresholded budgets need
calibrated probabilities.  This example fits a Platt calibrator on one
half of the customer base, applies it to the other half, and shows the
reliability table before and after (ranking untouched).

    python examples/calibrated_probabilities.py
"""

from __future__ import annotations

import numpy as np

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.eval import EvaluationProtocol
from repro.eval.reporting import format_table
from repro.ml.calibration import (
    PlattCalibrator,
    expected_calibration_error,
    reliability_curve,
)
from repro.ml.metrics import auroc

EVAL_MONTH = 22


def main() -> None:
    dataset = paper_scenario(n_loyal=80, n_churners=80, seed=29)
    protocol = EvaluationProtocol(dataset.bundle)
    fit_ids, eval_ids = protocol.train_test_split(seed=1)

    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)
    window = next(
        k for k in range(model.n_windows) if model.window_month(k) == EVAL_MONTH
    )

    def vectors(ids):
        scores = model.churn_scores(window, ids)
        return (
            dataset.cohorts.label_vector(ids),
            np.asarray([scores[c] for c in ids]),
        )

    fit_y, fit_scores = vectors(fit_ids)
    eval_y, eval_scores = vectors(eval_ids)

    calibrator = PlattCalibrator().fit(fit_scores, fit_y)
    calibrated = calibrator.transform(eval_scores)

    print(f"month {EVAL_MONTH}, held-out half ({len(eval_ids)} customers):")
    print(f"  raw score:  ECE {expected_calibration_error(eval_y, eval_scores):.3f}, "
          f"AUROC {auroc(eval_y, eval_scores):.3f}")
    print(f"  calibrated: ECE {expected_calibration_error(eval_y, calibrated):.3f}, "
          f"AUROC {auroc(eval_y, calibrated):.3f}  (ranking unchanged)\n")

    print("reliability after calibration (predicted vs observed churn rate):")
    rows = [
        (
            f"[{b.low:.1f}, {b.high:.1f})",
            f"{b.mean_predicted:.2f}",
            f"{b.observed_rate:.2f}",
            b.count,
        )
        for b in reliability_curve(eval_y, calibrated, n_bins=5)
    ]
    print(format_table(("bin", "predicted", "observed", "n"), rows))

    # The budget use case: mail everyone above 60% calibrated risk.
    threshold = 0.6
    targeted = calibrated >= threshold
    if targeted.any():
        realised = float(eval_y[targeted].mean())
        print(
            f"\nbudget rule 'mail above {threshold:.0%} risk': "
            f"{int(targeted.sum())} customers, realised churn rate {realised:.0%}"
        )


if __name__ == "__main__":
    main()
