"""S2 — streaming monitor throughput and batch equivalence.

Times the online :class:`~repro.core.streaming.StabilityMonitor` ingesting
the full benchmark dataset (the deployment path: receipts arrive one by
one), and verifies it reproduces the batch model's stability values
exactly — the property that lets a retailer run the paper's model
incrementally over millions of customers without recomputation.
"""

from __future__ import annotations

import math

from benchmarks.conftest import save_artifact
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.eval.reporting import format_table


def _stream_all(dataset):
    grid = WindowGrid.monthly(dataset.calendar, 2)
    monitor = StabilityMonitor(grid, beta=0.5, first_alarm_window=5)
    for customer in dataset.log.customers():
        monitor.register(customer)
    baskets = sorted(dataset.log, key=lambda b: b.day)
    reports = monitor.ingest_many(baskets)
    reports += monitor.finish()
    return monitor, reports, len(baskets)


def test_streaming_monitor(benchmark, bench_dataset, output_dir):
    monitor, reports, n_baskets = benchmark.pedantic(
        _stream_all, args=(bench_dataset,), rounds=3, iterations=1
    )

    # Equivalence with the batch model on a sample of customers.
    model = StabilityModel(
        bench_dataset.calendar, config=ExperimentConfig(window_months=2)
    ).fit(bench_dataset.log)
    by_window = {r.window_index: r for r in reports}
    checked = 0
    for customer in bench_dataset.log.customers()[::25]:
        trajectory = model.trajectory(customer)
        for k in range(model.n_windows):
            batch = trajectory.at(k).stability
            streamed = by_window[k].stabilities[customer]
            # Summation order differs between the two paths, so allow
            # 1-ulp float noise.
            assert (math.isnan(batch) and math.isnan(streamed)) or (
                abs(streamed - batch) <= 1e-12
            )
            checked += 1
    assert checked > 100

    total_alarms = sum(len(r.alarms) for r in reports)
    rows = [
        ("receipts streamed", f"{n_baskets:,}"),
        ("customers", f"{len(monitor.customers()):,}"),
        ("windows closed", f"{len(reports)}"),
        ("alarms raised (beta=0.5)", f"{total_alarms:,}"),
        ("batch-equivalence checks", f"{checked:,} (all within 1e-12)"),
    ]
    text = "\n".join(
        [
            "S2 — streaming monitor over the full benchmark dataset",
            format_table(("metric", "value"), rows),
        ]
    )
    save_artifact(output_dir, "streaming.txt", text)
