"""Early warning: customers likely to defect in the *future* months.

The paper's abstract: the model "is able to identify customers that are
likely to defect in the future months".  This example builds that
forward-looking call list: at a decision month, fit each customer's recent
stability trend, rank by the predicted number of windows until they cross
the defection threshold, and verify the list against what actually
happened afterwards.

    python examples/early_warning.py
"""

from __future__ import annotations

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.core.trend import forecast_stability, rank_by_risk
from repro.eval.reporting import format_table

DECISION_MONTH = 22
BETA = 0.5
CALL_LIST_SIZE = 12


def main() -> None:
    dataset = paper_scenario(n_loyal=50, n_churners=50, seed=19)
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)

    decision_window = next(
        k for k in range(model.n_windows)
        if model.window_month(k) == DECISION_MONTH
    )

    # Forecast every customer who has NOT yet crossed the threshold.
    forecasts = []
    for customer in model.customers():
        trajectory = model.trajectory(customer)
        current = trajectory.at(decision_window).stability
        if current <= BETA:
            continue  # already defecting: belongs on today's list, not tomorrow's
        forecasts.append(
            forecast_stability(
                trajectory, beta=BETA, lookback=4, upto_window=decision_window
            )
        )

    call_list = rank_by_risk(forecasts)[:CALL_LIST_SIZE]
    print(
        f"early-warning call list at month {DECISION_MONTH} "
        f"(threshold {BETA}, customers still above it):\n"
    )
    rows = []
    for forecast in call_list:
        trajectory = model.trajectory(forecast.customer_id)
        actually_crossed = next(
            (
                model.window_month(record.window.index)
                for record in trajectory.records
                if record.window.index > decision_window
                and record.defined
                and record.stability <= BETA
            ),
            None,
        )
        horizon = (
            f"{forecast.windows_to_threshold:.1f} windows"
            if forecast.windows_to_threshold is not None
            else "declining"
        )
        rows.append(
            (
                forecast.customer_id,
                f"{forecast.level:.2f}",
                f"{forecast.slope:+.3f}",
                horizon,
                f"month {actually_crossed}" if actually_crossed else "never",
                "churner" if dataset.cohorts.is_churner(forecast.customer_id) else "loyal",
            )
        )
    print(
        format_table(
            ("customer", "stability", "slope", "predicted crossing",
             "actual crossing", "truth"),
            rows,
        )
    )

    churners_on_list = sum(
        1 for f in call_list if dataset.cohorts.is_churner(f.customer_id)
    )
    print(
        f"\n{churners_on_list}/{len(call_list)} of the call list are true "
        f"churners (base rate 50%)"
    )


if __name__ == "__main__":
    main()
