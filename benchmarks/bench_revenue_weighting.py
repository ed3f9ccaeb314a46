"""A9 — ablation: revenue-weighted stability.

An extension the paper's framework admits naturally: weight each item's
significance by its segment price, so stability measures the *revenue*
share of the habit a customer kept.  The bench compares plain vs
revenue-weighted stability on (a) detection AUROC and (b) the share of
at-risk revenue captured when targeting the top 10% — the metric a
finance-minded retention programme optimises.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_artifact
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.reporting import format_table
from repro.ml.metrics import auroc
from repro.synth.shopping import segment_prices

MONTHS = (20, 22)
BUDGET = 0.10


def _evaluate(dataset, item_weights):
    customers = dataset.cohorts.all_customers()
    model = StabilityModel(
        dataset.calendar,
        item_weights=item_weights,
        config=ExperimentConfig(window_months=2, alpha=2.0),
    ).fit(dataset.log, customers)
    y = dataset.cohorts.label_vector(customers)

    # Revenue at risk: each churner's pre-onset spend rate (per month).
    onset_day = dataset.calendar.month_start_day(dataset.cohorts.onset_month)
    at_risk = {}
    for customer in customers:
        if not dataset.cohorts.is_churner(customer):
            at_risk[customer] = 0.0
            continue
        spend = sum(
            b.monetary for b in dataset.log.history(customer) if b.day < onset_day
        )
        at_risk[customer] = spend / dataset.cohorts.onset_month

    out = {}
    for month in MONTHS:
        window = next(
            k for k in range(model.n_windows) if model.window_month(k) == month
        )
        scores = model.churn_scores(window, customers)
        s = np.asarray([scores[c] for c in customers])
        out[month] = {"auroc": auroc(y, s)}
        k = max(1, int(round(BUDGET * len(customers))))
        top = [customers[i] for i in np.argsort(-s, kind="mergesort")[:k]]
        captured = sum(at_risk[c] for c in top)
        total = sum(at_risk.values())
        out[month]["revenue_capture"] = captured / total if total else 0.0
    return out


def _oracle_capture(dataset) -> float:
    """Upper bound: target the highest-spend churners directly."""
    customers = dataset.cohorts.all_customers()
    onset_day = dataset.calendar.month_start_day(dataset.cohorts.onset_month)
    at_risk = {
        c: (
            sum(b.monetary for b in dataset.log.history(c) if b.day < onset_day)
            if dataset.cohorts.is_churner(c)
            else 0.0
        )
        for c in customers
    }
    k = max(1, int(round(BUDGET * len(customers))))
    best = sorted(at_risk.values(), reverse=True)[:k]
    total = sum(at_risk.values())
    return sum(best) / total if total else 0.0


def test_revenue_weighting(benchmark, bench_dataset, output_dir):
    prices = segment_prices(bench_dataset.catalog)
    plain = _evaluate(bench_dataset, item_weights=None)
    weighted = benchmark.pedantic(
        _evaluate, args=(bench_dataset, prices), rounds=1, iterations=1
    )
    oracle = _oracle_capture(bench_dataset)
    rows = []
    for name, result in (("plain", plain), ("revenue-weighted", weighted)):
        for month in MONTHS:
            rows.append(
                (
                    name,
                    month,
                    f"{result[month]['auroc']:.3f}",
                    f"{result[month]['revenue_capture']:.1%}",
                )
            )
    text = "\n".join(
        [
            f"A9 — plain vs revenue-weighted stability "
            f"(revenue capture = at-risk spend reached in the top {BUDGET:.0%})",
            format_table(("variant", "month", "AUROC", "revenue capture"), rows),
            "",
            f"context: random targeting captures ~{BUDGET:.0%} in expectation; "
            f"a revenue oracle captures {oracle:.1%}.",
            "finding: price-weighting leaves detection unchanged and does NOT",
            "improve revenue capture — the most *detectable* churners (fast,",
            "deep habit loss) are not the biggest spenders, so a",
            "revenue-optimal programme needs spend as an explicit second",
            "ranking factor, not a significance weight.",
        ]
    )
    save_artifact(output_dir, "revenue_weighting.txt", text)

    # Weighting must not degrade detection...
    for month in MONTHS:
        assert weighted[month]["auroc"] > plain[month]["auroc"] - 0.05
    # ...capture is non-trivial and bounded by the oracle.
    for result in (plain, weighted):
        assert 0.0 < result[22]["revenue_capture"] <= oracle
