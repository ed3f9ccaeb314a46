"""Tests for repro.core.characterization (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.core.characterization import (
    classify_loss,
    loss_events,
    profile_population,
)
from repro.errors import ConfigError
from repro.synth.catalog import build_catalog
from tests.core.histories import trajectory_of


class TestClassifyLoss:
    def test_abrupt_when_streak_unbroken(self):
        assert classify_loss([True, True, True], 3) == "abrupt"

    def test_fading_when_recent_misses(self):
        assert classify_loss([True, False, True], 3) == "fading"

    def test_short_history_uses_what_exists(self):
        assert classify_loss([True], 1) == "abrupt"
        assert classify_loss([False], 1) == "fading"

    def test_only_last_three_windows_considered(self):
        # Early misses do not matter if the recent streak is clean.
        assert classify_loss([False, True, True, True], 4) == "abrupt"

    def test_invalid_position_rejected(self):
        with pytest.raises(ConfigError):
            classify_loss([True], 0)


class TestLossEvents:
    def test_single_abrupt_loss(self):
        trajectory = trajectory_of([{1, 2}, {1, 2}, {1, 2}, {1}])
        events = loss_events(trajectory)
        assert len(events) == 1
        event = events[0]
        assert event.item == 2
        assert event.window_index == 3
        assert event.kind == "abrupt"
        assert event.recovered_window is None
        assert event.share == pytest.approx(0.5)

    def test_recovery_detected(self):
        trajectory = trajectory_of([{1, 2}, {1, 2}, {1}, {1, 2}])
        events = loss_events(trajectory)
        assert len(events) == 1
        assert events[0].recovered_window == 3

    def test_fading_loss(self):
        # Item 2 misses window 1, returns in 2, gone from 3: the final
        # loss is classified as fading (broken streak in the lookback).
        trajectory = trajectory_of([{1, 2}, {1}, {1, 2}, {1}, {1}])
        events = loss_events(trajectory)
        kinds = {(e.window_index, e.kind) for e in events}
        assert (3, "fading") in kinds

    def test_min_share_filters_insignificant_items(self):
        trajectory = trajectory_of([{1, 2}, {1}, {1}, {1}, {1}, {1, 3}, {1}])
        # Item 3 appears once then vanishes with tiny significance.
        events = loss_events(trajectory, min_share=0.2)
        assert all(e.item != 3 for e in events)
        events_loose = loss_events(trajectory, min_share=0.0)
        assert any(e.item == 3 for e in events_loose)

    def test_invalid_min_share(self):
        trajectory = trajectory_of([{1}])
        with pytest.raises(ConfigError):
            loss_events(trajectory, min_share=2.0)

    def test_events_ordered(self):
        trajectory = trajectory_of([{1, 2, 3}, {1, 2, 3}, {1, 3}, {1}])
        events = loss_events(trajectory)
        positions = [e.window_index for e in events]
        assert positions == sorted(positions)

    def test_no_events_for_stable_customer(self):
        trajectory = trajectory_of([{1}, {1}, {1}])
        assert loss_events(trajectory) == []


class TestPopulationProfile:
    @pytest.fixture()
    def profile(self):
        trajectories = [
            trajectory_of([{1, 2}, {1, 2}, {1, 2}, {1}]),
            trajectory_of([{1, 2}, {1, 2}, {2}, {2}], customer_id=2),
            trajectory_of([{2}, {2}, {2}, {2}], customer_id=3),
        ]
        return profile_population(trajectories)

    def test_counts(self, profile):
        assert profile.n_customers == 3
        assert profile.n_events == 2
        assert profile.segments[2].n_losses == 1  # customer 1 lost item 2
        assert profile.segments[1].n_losses == 1  # customer 2 lost item 1

    def test_top_lost_ordering(self, profile):
        top = profile.top_lost(k=5)
        assert len(top) == 2
        assert all(s.n_losses >= 1 for s in top)

    def test_rates(self, profile):
        summary = profile.segments[2]
        assert summary.abrupt_rate == 1.0
        assert summary.recovery_rate == 0.0

    def test_department_rollup(self):
        catalog = build_catalog(n_segments=60, products_per_segment=2)
        coffee = catalog.segment_by_name("Coffee").segment_id
        milk = catalog.segment_by_name("Milk").segment_id
        trajectories = [
            trajectory_of([{coffee, milk}, {coffee, milk}, {coffee, milk}, {milk}])
        ]
        profile = profile_population(trajectories)
        rollup = profile.department_rollup(catalog)
        assert rollup == {"Beverages": 1}

    def test_synthetic_churners_lose_more_than_loyal(self, small_dataset):
        from repro.core.model import StabilityModel

        model = StabilityModel(small_dataset.calendar).fit(small_dataset.log)
        loyal = [model.trajectory(c) for c in sorted(small_dataset.cohorts.loyal)]
        churn = [model.trajectory(c) for c in sorted(small_dataset.cohorts.churners)]
        loyal_profile = profile_population(loyal, min_share=0.03)
        churn_profile = profile_population(churn, min_share=0.03)
        assert churn_profile.n_events > loyal_profile.n_events
