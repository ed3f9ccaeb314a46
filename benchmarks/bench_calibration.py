"""A10 — calibrating the stability score into a churn probability.

``1 - stability`` ranks customers well (Figure 1) but is not a
probability: its raw values over-state risk for habitual shoppers with
small baskets and under-state it elsewhere.  This bench measures the
expected calibration error of the raw score at month 22 and after Platt
scaling on a held-out half, confirming the monotone recalibration keeps
AUROC identical while making the probabilities budgetable.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_artifact
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.protocol import EvaluationProtocol
from repro.eval.reporting import format_table
from repro.ml.calibration import PlattCalibrator, expected_calibration_error
from repro.ml.metrics import auroc

EVAL_MONTH = 22


def _scores(dataset):
    protocol = EvaluationProtocol(dataset.bundle)
    fit_ids, eval_ids = protocol.train_test_split(seed=0)
    model = StabilityModel(
        dataset.calendar, config=ExperimentConfig(window_months=2)
    ).fit(dataset.log, fit_ids + eval_ids)
    window = next(
        k for k in range(model.n_windows) if model.window_month(k) == EVAL_MONTH
    )

    def vectors(ids):
        scores = model.churn_scores(window, ids)
        y = dataset.cohorts.label_vector(ids)
        return y, np.asarray([scores[c] for c in ids])

    return vectors(fit_ids), vectors(eval_ids)


def test_stability_score_calibration(benchmark, bench_dataset, output_dir):
    (fit_y, fit_s), (eval_y, eval_s) = benchmark.pedantic(
        _scores, args=(bench_dataset,), rounds=1, iterations=1
    )
    raw_ece = expected_calibration_error(eval_y, eval_s)
    calibrator = PlattCalibrator().fit(fit_s, fit_y)
    calibrated = calibrator.transform(eval_s)
    platt_ece = expected_calibration_error(eval_y, calibrated)
    raw_auc = auroc(eval_y, eval_s)
    platt_auc = auroc(eval_y, calibrated)

    rows = [
        ("raw 1 - stability", f"{raw_ece:.3f}", f"{raw_auc:.3f}"),
        ("Platt-calibrated", f"{platt_ece:.3f}", f"{platt_auc:.3f}"),
    ]
    text = "\n".join(
        [
            f"A10 — calibration of the stability churn score at month {EVAL_MONTH} "
            f"(held-out half)",
            format_table(("score", "ECE", "AUROC"), rows),
        ]
    )
    save_artifact(output_dir, "calibration.txt", text)

    assert platt_ece < raw_ece  # calibration genuinely improves
    assert platt_auc == raw_auc  # and the ranking is untouched