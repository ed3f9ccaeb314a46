"""Targeted retention campaign: the use case motivating the paper.

"Retailers want to lower their retention marketing expenses, by deploying
accurate targeted marketing" (Section 1) — and the stability model tells
the retailer not just *who* to target, but *which products* to build the
offer around ("he can then target his marketing on significant products
that this customer is not buying anymore", Section 3.2).

This example budgets a campaign for the riskiest 15% of customers at the
latest evaluation window, prints each targeted customer with the segments
to feature in their offer, and reports the campaign's lift over random
targeting.

    python examples/retention_campaign.py
"""

from __future__ import annotations

import numpy as np

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.ml.metrics import lift_at_fraction

CAMPAIGN_FRACTION = 0.15
TOP_SEGMENTS_PER_OFFER = 3


def main() -> None:
    dataset = paper_scenario(n_loyal=60, n_churners=60, seed=9)
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)

    # Score everyone at the window ending at month 22.
    window = next(
        k for k in range(model.n_windows) if model.window_month(k) == 22
    )
    scores = model.churn_scores(window)

    # Budget: target the riskiest 15%.
    customers = sorted(scores, key=scores.get, reverse=True)
    n_targeted = max(1, int(len(customers) * CAMPAIGN_FRACTION))
    targeted = customers[:n_targeted]

    print(f"campaign: targeting {n_targeted}/{len(customers)} customers "
          f"at month {model.window_month(window)}\n")
    header = f"{'customer':>8}  {'score':>5}  {'truth':<7}  offer should feature"
    print(header)
    print("-" * len(header))
    for customer in targeted:
        explanation = model.explain(customer, window, top_k=TOP_SEGMENTS_PER_OFFER)
        names = ", ".join(
            dataset.catalog.segment(m.item).name for m in explanation.missing
        )
        truth = "churner" if dataset.cohorts.is_churner(customer) else "loyal"
        print(f"{customer:>8}  {scores[customer]:>5.2f}  {truth:<7}  {names}")

    # How much better than random mailing is this targeting?
    ids = sorted(scores)
    y_true = dataset.cohorts.label_vector(ids)
    y_score = np.asarray([scores[c] for c in ids])
    lift = lift_at_fraction(y_true, y_score, CAMPAIGN_FRACTION)
    hit_rate = float(
        np.mean([dataset.cohorts.is_churner(c) for c in targeted])
    )
    print(
        f"\ncampaign hit rate: {hit_rate:.0%} actual churners "
        f"(base rate {y_true.mean():.0%}) -> lift {lift:.1f}x over random mailing"
    )


if __name__ == "__main__":
    main()
