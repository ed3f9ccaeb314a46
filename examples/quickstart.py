"""Quickstart: fit the stability model, detect a churner, explain why.

Runs in a few seconds:

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ExperimentConfig, StabilityModel, paper_scenario


def main() -> None:
    # 1. A synthetic grocery retailer: 30 loyal customers plus 30 that
    #    start defecting around month 18 of a 28-month study.
    dataset = paper_scenario(n_loyal=30, n_churners=30, seed=42)
    print(
        f"dataset: {dataset.log.n_customers} customers, "
        f"{dataset.log.n_baskets} receipts, "
        f"{dataset.catalog.n_segments} product segments"
    )

    # 2. The paper's model: 2-month windows, alpha = 2.
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)

    # 3. Score everyone at the window ending at month 22 (after the onset).
    window = next(
        k for k in range(model.n_windows) if model.window_month(k) == 22
    )
    scores = model.churn_scores(window)
    riskiest = max(scores, key=scores.get)
    label = "churner" if dataset.cohorts.is_churner(riskiest) else "loyal"
    print(
        f"\nriskiest customer at month 22: #{riskiest} "
        f"(churn score {scores[riskiest]:.2f}, ground truth: {label})"
    )

    # 4. Explain the defection: which significant segments disappeared?
    explanation = model.explain(riskiest, window, top_k=5)
    print(f"stability: {explanation.stability:.2f}; missing significant segments:")
    for item in explanation.missing:
        name = dataset.catalog.segment(item.item).name
        print(f"  - {name:<22} significance {item.significance:>8.1f} "
              f"({item.share:.0%} of the stability loss)")

    # 5. The customer's whole trajectory, month by month.
    trajectory = model.trajectory(riskiest)
    print("\nstability trajectory:")
    for k in range(model.n_windows):
        record = trajectory.at(k)
        if record.defined:
            bar = "#" * int(record.stability * 40)
            print(f"  month {model.window_month(k):>2}: {record.stability:.2f} {bar}")


if __name__ == "__main__":
    main()
