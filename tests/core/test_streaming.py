"""Tests for repro.core.streaming (online StabilityMonitor)."""

from __future__ import annotations

import math

import pytest

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.streaming import StabilityMonitor, monitor_scores
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.errors import ConfigError, DataError
from repro.runtime.snapshot import snapshot_monitor


@pytest.fixture()
def grid() -> WindowGrid:
    return WindowGrid.daily(total_days=60, days_per_window=10)


def _basket(customer: int, day: int, items) -> Basket:
    return Basket.of(customer_id=customer, day=day, items=items)


class TestValidation:
    def test_bad_beta_rejected(self, grid):
        with pytest.raises(ConfigError):
            StabilityMonitor(grid, beta=1.5)

    def test_negative_burn_in_rejected(self, grid):
        with pytest.raises(ConfigError):
            StabilityMonitor(grid, first_alarm_window=-1)

    def test_out_of_order_rejected(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.ingest(_basket(1, 30, [1]))
        with pytest.raises(DataError, match="day order"):
            monitor.ingest(_basket(1, 10, [1]))

    def test_cross_window_out_of_order_names_closed_window(self, grid):
        # Day 30 opens window 3 and closes 0-2; a basket for day 10
        # belongs to the already-scored window 1, which must refuse with
        # customer/day/window context rather than fold in silently.
        monitor = StabilityMonitor(grid)
        monitor.ingest(_basket(1, 30, [1]))
        with pytest.raises(
            DataError,
            match=r"customer 7: basket at day 10 predates the open window 3",
        ):
            monitor.ingest(_basket(7, 10, [1]))

    def test_same_window_out_of_order_names_customer_and_days(self, grid):
        # Days 15 and 12 share window 1: assignment would be unharmed,
        # but day order is still the stream contract.
        monitor = StabilityMonitor(grid)
        monitor.ingest(_basket(1, 15, [1]))
        with pytest.raises(
            DataError, match=r"customer 2: .*day 12 after day 15"
        ):
            monitor.ingest(_basket(2, 12, [1]))

    def test_outside_grid_rejected(self, grid):
        monitor = StabilityMonitor(grid)
        with pytest.raises(DataError, match="outside"):
            monitor.ingest(_basket(1, 99, [1]))

    def test_ingest_after_finish_rejected(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.finish()
        with pytest.raises(DataError, match="finished"):
            monitor.ingest(_basket(1, 0, [1]))

    def test_unknown_customer_state_rejected(self, grid):
        with pytest.raises(DataError, match="not in the stream"):
            StabilityMonitor(grid).explain_alarm(9)


class TestWindowClosing:
    def test_reports_emitted_when_time_advances(self, grid):
        monitor = StabilityMonitor(grid)
        assert monitor.ingest(_basket(1, 0, [1])) == []
        reports = monitor.ingest(_basket(1, 25, [1]))
        assert [r.window_index for r in reports] == [0, 1]
        assert monitor.current_window == 2

    def test_finish_closes_remaining_windows(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.ingest(_basket(1, 0, [1]))
        reports = monitor.finish()
        assert [r.window_index for r in reports] == list(range(6))
        assert monitor.finish() == []  # idempotent

    def test_first_window_stability_undefined(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.ingest(_basket(1, 0, [1]))
        report = monitor.ingest(_basket(1, 10, [1]))[0]
        assert math.isnan(report.stabilities[1])

    def test_stable_customer_scores_one(self, grid):
        monitor = StabilityMonitor(grid)
        reports = []
        for day in range(0, 60, 10):
            reports.extend(monitor.ingest(_basket(1, day, [1, 2])))
        reports.extend(monitor.finish())
        assert len(reports) == 6
        for report in reports[1:]:
            assert report.stabilities[1] == 1.0


class TestAlarms:
    def test_alarm_on_drop(self, grid):
        monitor = StabilityMonitor(grid, beta=0.6)
        reports = []
        for day in range(0, 40, 10):
            reports.extend(monitor.ingest(_basket(1, day, [1, 2])))
        for day in range(40, 60, 10):
            reports.extend(monitor.ingest(_basket(1, day, [1])))
        reports.extend(monitor.finish())
        alarm_windows = [
            r.window_index for r in reports if any(a.customer_id == 1 for a in r.alarms)
        ]
        # Window 4 drops item 2 (stability 0.5); by window 5 the lost
        # item's significance has decayed, so stability recovers to 0.8.
        assert alarm_windows == [4]
        by_window = {r.window_index: r.stabilities[1] for r in reports}
        assert by_window[4] == pytest.approx(0.5)
        assert by_window[5] == pytest.approx(0.8)

    def test_burn_in_suppresses_alarms(self, grid):
        monitor = StabilityMonitor(grid, beta=1.0, first_alarm_window=5)
        for day in range(0, 60, 10):
            monitor.ingest(_basket(1, day, [1]))
        reports = monitor.finish()
        alarmed = [r.window_index for r in reports if r.alarms]
        assert alarmed == [5]

    def test_explain_alarm_names_missing_item(self, grid):
        monitor = StabilityMonitor(grid, beta=0.8)
        for day in range(0, 40, 10):
            monitor.ingest(_basket(1, day, [1, 2]))
        for day in range(40, 60, 10):
            monitor.ingest(_basket(1, day, [1]))
        monitor.finish()
        ranked = monitor.explain_alarm(1, top_k=3)
        assert ranked
        assert ranked[0][0] == 2


    def test_alarm_log_holds_every_reported_alarm(self, calendar, small_dataset):
        """The log is the reports' alarms in close order, and
        ``monitor_scores`` reads each customer's last reported stability
        and window-ordered alarms back from the columns."""
        monitor = StabilityMonitor.from_config(
            calendar, ExperimentConfig(), beta=0.6, first_alarm_window=2
        )
        reports = monitor.ingest_many(sorted(small_dataset.log, key=lambda b: b.day))
        reports += monitor.finish()
        alarms = [alarm for report in reports for alarm in report.alarms]
        assert len({alarm.customer_id for alarm in alarms}) > 1
        assert len({alarm.window_index for alarm in alarms}) > 1
        columns = monitor._columns
        assert columns["alarm_customers"].tolist() == [a.customer_id for a in alarms]
        assert columns["alarm_windows"].tolist() == [a.window_index for a in alarms]
        assert columns["alarm_stability"].tolist() == [a.stability for a in alarms]

        last: dict[int, float] = {}
        for report in reports:
            last.update(report.stabilities)
        expected = {
            customer: tuple(
                (a.window_index, a.stability) for a in alarms if a.customer_id == customer
            )
            for customer in sorted(last)
        }
        scores, flags, alarm_windows = monitor_scores([monitor])
        assert list(scores) == sorted(last)
        assert all(
            scores[c] == value or (math.isnan(scores[c]) and math.isnan(value))
            for c, value in last.items()
        )
        assert alarm_windows == expected
        assert flags == {customer: bool(rows) for customer, rows in expected.items()}

    def test_registered_customer_is_not_scored_before_a_close(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.register(3)
        monitor.ingest(_basket(1, 0, [1]))
        # A snapshot gives the open window's customers rows, but no
        # window has closed on them yet.
        snapshot_monitor(monitor)
        assert monitor._columns["customers"].tolist() == [1, 3]
        assert monitor_scores([monitor]) == ({}, {}, {})
        monitor.ingest(_basket(1, 15, [1]))
        scores, flags, alarm_windows = monitor_scores([monitor])
        assert list(scores) == [1, 3] and math.isnan(scores[3])
        assert flags == {1: False, 3: False}
        assert alarm_windows == {1: (), 3: ()}


class TestRegistration:
    def test_silent_registered_customer_is_scored(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.register(7)
        monitor.ingest(_basket(1, 0, [1]))
        report = monitor.ingest(_basket(1, 15, [1]))[0]
        assert 7 in report.stabilities
        assert math.isnan(report.stabilities[7])

    def test_customers_listed(self, grid):
        monitor = StabilityMonitor(grid)
        monitor.register(5)
        monitor.ingest(_basket(2, 0, [1]))
        assert monitor.customers() == [2, 5]


class TestBatchEquivalence:
    def test_python_fallback_matches_incremental_model(self, calendar, small_dataset):
        """Non-exponential significance routes through the pure-Python
        close path and must still match the incremental model."""
        from repro.core.significance import FrequencyRatioSignificance

        customers = small_dataset.log.customers()[:6]
        log = small_dataset.log.filter_customers(customers)
        significance = FrequencyRatioSignificance()
        model = StabilityModel(
            calendar,
            significance=significance,
            config=ExperimentConfig(window_months=2),
        ).fit(log)

        monitor = StabilityMonitor(model.grid, significance=significance)
        for customer in customers:
            monitor.register(customer)
        reports = monitor.ingest_many(sorted(log, key=lambda b: b.day))
        reports += monitor.finish()

        by_window = {r.window_index: r for r in reports}
        for customer in customers:
            trajectory = model.trajectory(customer)
            for k in range(model.n_windows):
                expected = trajectory.at(k).stability
                streamed = by_window[k].stabilities[customer]
                if math.isnan(expected):
                    assert math.isnan(streamed)
                else:
                    assert streamed == pytest.approx(expected)

    def test_matches_stability_model(self, calendar, small_dataset):
        """The streaming monitor must reproduce the batch model exactly."""
        customers = small_dataset.log.customers()[:12]
        log = small_dataset.log.filter_customers(customers)
        config = ExperimentConfig(window_months=2, alpha=2.0)
        model = StabilityModel(calendar, config=config).fit(log)

        monitor = StabilityMonitor(model.grid)
        for customer in customers:
            monitor.register(customer)
        baskets = sorted(log, key=lambda b: b.day)
        reports = monitor.ingest_many(baskets) + monitor.finish()

        by_window = {r.window_index: r for r in reports}
        for customer in customers:
            trajectory = model.trajectory(customer)
            for k in range(model.n_windows):
                batch = trajectory.at(k).stability
                streamed = by_window[k].stabilities[customer]
                if math.isnan(batch):
                    assert math.isnan(streamed)
                else:
                    assert streamed == pytest.approx(batch)
