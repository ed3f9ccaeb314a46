"""Month-by-month attrition monitoring, as a retailer would deploy it.

Replays the study window by window: at the end of each 2-month window the
model re-scores the customer base, raises alarms (stability <= beta after
a burn-in), and aggregates which product segments the flagged customers
are abandoning — the population-level view of the paper's individual
explanations.

    python examples/monitoring_dashboard.py
"""

from __future__ import annotations

from collections import Counter

from repro import ExperimentConfig, StabilityModel, ThresholdDetector, paper_scenario

BETA = 0.75
BURN_IN_MONTH = 12
TOP_LOST_SEGMENTS = 5


def main() -> None:
    dataset = paper_scenario(n_loyal=50, n_churners=50, seed=17)
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)
    detector = ThresholdDetector(beta=BETA)

    print(f"monitoring {dataset.log.n_customers} customers "
          f"(alarm when stability <= {BETA}, from month {BURN_IN_MONTH})\n")
    already_flagged: set[int] = set()
    for k in range(model.n_windows):
        month = model.window_month(k)
        if month < BURN_IN_MONTH:
            continue

        flagged = {
            customer
            for customer in model.customers()
            if detector.is_defecting(model.trajectory(customer), k)
        }
        new = flagged - already_flagged
        already_flagged |= flagged

        lost_segments: Counter[str] = Counter()
        for customer in flagged:
            explanation = model.explain(customer, k, top_k=3)
            for item in explanation.missing:
                lost_segments[dataset.catalog.segment(item.item).name] += 1

        top = ", ".join(
            f"{name} ({count})"
            for name, count in lost_segments.most_common(TOP_LOST_SEGMENTS)
        )
        marker = " <- defection onset" if month == dataset.cohorts.onset_month + 2 else ""
        print(
            f"month {month:>2}: {len(flagged):>3} alarmed "
            f"({len(new):>3} new){marker}"
        )
        if top:
            print(f"          top abandoned segments: {top}")

    # Precision of the final alarm set against the ground truth.
    churners = dataset.cohorts.churners
    true_positives = len(already_flagged & churners)
    print(
        f"\nfinal: {len(already_flagged)} customers ever flagged, "
        f"{true_positives} of {len(churners)} churners caught "
        f"({len(already_flagged) - true_positives} false alarms)"
    )


if __name__ == "__main__":
    main()
