"""E1-detail — the beta-threshold operating points behind Figure 1.

Section 3.1: "The points on these curves are obtained using different
thresholds beta for the customer stability.  If Stability_i^k > beta the
customer is considered loyal.  Otherwise, the customer is considered as
defecting."  This bench materialises that sweep at the paper's headline
month (onset + 2): the full ROC curve of the stability score, with the
beta value, false-positive rate and true-positive rate of selected
operating points — the table a retailer uses to pick their beta.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_artifact
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.reporting import format_table
from repro.ml.bootstrap import bootstrap_auroc_ci
from repro.ml.metrics import roc_curve

EVAL_MONTH = 20


def _stability_scores(dataset):
    customers = dataset.cohorts.all_customers()
    model = StabilityModel(
        dataset.calendar, config=ExperimentConfig(window_months=2, alpha=2.0)
    ).fit(dataset.log, customers)
    window = next(
        k for k in range(model.n_windows) if model.window_month(k) == EVAL_MONTH
    )
    scores = model.churn_scores(window, customers)
    y = dataset.cohorts.label_vector(customers)
    s = np.asarray([scores[c] for c in customers])
    return y, s


def test_roc_operating_points(benchmark, bench_dataset, output_dir):
    y, s = benchmark.pedantic(
        _stability_scores, args=(bench_dataset,), rounds=1, iterations=1
    )
    curve = roc_curve(y, s)
    ci = bootstrap_auroc_ci(y, s, n_resamples=500, seed=0)

    # Selected operating points: the thresholds closest to round FPRs.
    rows = []
    for target_fpr in (0.01, 0.05, 0.10, 0.20, 0.50):
        index = int(np.searchsorted(curve.fpr, target_fpr, side="left"))
        index = min(index, len(curve.fpr) - 1)
        threshold = curve.thresholds[index]
        # churn score = 1 - stability, so beta = 1 - threshold.
        beta = 1.0 - threshold if np.isfinite(threshold) else 1.0
        rows.append(
            (
                f"{target_fpr:.0%}",
                f"{beta:.3f}",
                f"{curve.fpr[index]:.3f}",
                f"{curve.tpr[index]:.3f}",
            )
        )
    text = "\n".join(
        [
            f"E1-detail — beta operating points at month {EVAL_MONTH} "
            f"(AUROC {ci})",
            format_table(("target FPR", "beta", "FPR", "TPR"), rows),
        ]
    )
    save_artifact(output_dir, "roc_operating_points.txt", text)

    assert ci.low > 0.6  # even the CI lower bound beats chance at month 20
    assert curve.area() == ci.point
    # TPR must grow along the selected operating points.
    tprs = [float(r[3]) for r in rows]
    assert tprs == sorted(tprs)
