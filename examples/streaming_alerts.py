"""Deploying the model as a live alerting service.

The batch model refits from the whole log; a production system sees
receipts stream in and must alert the retention team the moment a window
closes with a customer below threshold.  This example replays a dataset
through the online :class:`~repro.core.streaming.StabilityMonitor`, one
day of receipts at a time, and prints the alert feed a retention team
would consume, each alert carrying its explanation (the products whose
loss triggered it).

    python examples/streaming_alerts.py
"""

from __future__ import annotations

from itertools import groupby

from repro import paper_scenario
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid

BETA = 0.6
BURN_IN_WINDOWS = 5  # ignore the noisy first 10 months


def main() -> None:
    dataset = paper_scenario(n_loyal=25, n_churners=25, seed=31)
    grid = WindowGrid.monthly(dataset.calendar, 2)
    monitor = StabilityMonitor(
        grid, beta=BETA, first_alarm_window=BURN_IN_WINDOWS
    )
    for customer in dataset.log.customers():
        monitor.register(customer)

    print(f"streaming {dataset.log.n_baskets} receipts for "
          f"{dataset.log.n_customers} customers (alert at stability <= {BETA})\n")

    baskets = sorted(dataset.log, key=lambda basket: basket.day)
    n_alerts = 0
    alerted: set[int] = set()
    for __, day in groupby(baskets, key=lambda basket: basket.day):
        for report in monitor.ingest_many(day):
            month = grid.end_month(report.window_index, dataset.calendar)
            for alarm in report.alarms:
                n_alerts += 1
                reasons = ", ".join(
                    dataset.catalog.segment(item).name
                    for item, __ in monitor.explain_alarm(alarm.customer_id, top_k=3)
                )
                flag = "" if alarm.customer_id in alerted else "  [FIRST ALERT]"
                alerted.add(alarm.customer_id)
                print(
                    f"month {month:>2} | customer {alarm.customer_id:>3} "
                    f"stability {alarm.stability:.2f} | stopped buying: {reasons}{flag}"
                )
    for report in monitor.finish():
        month = grid.end_month(report.window_index, dataset.calendar)
        for alarm in report.alarms:
            n_alerts += 1
            alerted.add(alarm.customer_id)
            print(f"month {month:>2} | customer {alarm.customer_id:>3} "
                  f"stability {alarm.stability:.2f}")

    churners = dataset.cohorts.churners
    caught = len(alerted & churners)
    print(
        f"\n{n_alerts} alerts for {len(alerted)} distinct customers; "
        f"{caught}/{len(churners)} true churners caught, "
        f"{len(alerted) - caught} loyal customers flagged"
    )


if __name__ == "__main__":
    main()
