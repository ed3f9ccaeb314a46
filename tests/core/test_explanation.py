"""Tests for repro.core.explanation — the paper's argmax explanation."""

from __future__ import annotations

import pytest

from repro.core.explanation import explain_drop, explain_trajectory, explain_window
from repro.errors import ConfigError
from tests.core.histories import trajectory_of


@pytest.fixture()
def trajectory():
    # Items: 1 bought every window (most significant), 2 bought in the
    # first two, 3 only in the first.  Window 3 drops everything but 1.
    return trajectory_of([{1, 2, 3}, {1, 2}, {1, 2}, {1}], customer_id=5)


class TestExplainWindow:
    def test_argmax_is_most_significant_missing(self, trajectory):
        explanation = explain_window(trajectory, 3)
        # At k=3: item 2 has c=3,l=0 -> S=8; item 3 has c=1,l=2 -> S=0.5.
        assert explanation.top_item is not None
        assert explanation.top_item.item == 2
        assert explanation.top_item.significance == pytest.approx(8.0)

    def test_ranking_order(self, trajectory):
        explanation = explain_window(trajectory, 3)
        assert [m.item for m in explanation.missing] == [2, 3]

    def test_shares_sum_to_lost_stability(self, trajectory):
        explanation = explain_window(trajectory, 3)
        record = trajectory.at(3)
        lost = 1.0 - record.stability
        assert sum(m.share for m in explanation.missing) == pytest.approx(lost)

    def test_newly_missing_restricted_to_previous_window(self, trajectory):
        explanation = explain_window(trajectory, 3)
        # Item 3 was already missing in window 2, so only 2 is *newly* missing.
        assert [m.item for m in explanation.newly_missing] == [2]

    def test_no_missing_items(self):
        trajectory = trajectory_of([{1}, {1}])
        explanation = explain_window(trajectory, 1)
        assert explanation.missing == ()
        assert explanation.top_item is None

    def test_window_zero_has_no_previous(self):
        trajectory = trajectory_of([{1}, {1}])
        explanation = explain_window(trajectory, 0)
        assert explanation.newly_missing == ()

    def test_explicit_previous_items(self, trajectory):
        explanation = explain_window(trajectory, 3, previous_items=frozenset({3}))
        assert [m.item for m in explanation.newly_missing] == [3]

    def test_metadata(self, trajectory):
        explanation = explain_window(trajectory, 3)
        assert explanation.customer_id == 5
        assert explanation.window_index == 3
        assert explanation.stability == trajectory.at(3).stability

    def test_top_items_k(self, trajectory):
        explanation = explain_window(trajectory, 3)
        assert len(explanation.top_items(1)) == 1
        assert len(explanation.top_items(10)) == 2

    def test_top_items_negative_rejected(self, trajectory):
        explanation = explain_window(trajectory, 3)
        with pytest.raises(ConfigError):
            explanation.top_items(-1)

    def test_deterministic_tie_break_by_item_id(self):
        # Two items with identical significance rank by ascending id.
        trajectory = trajectory_of([{1, 2}, {1, 2}, set()])
        explanation = explain_window(trajectory, 2)
        assert [m.item for m in explanation.missing] == [1, 2]


class TestExplainDropAndTrajectory:
    def test_explain_drop_alias(self, trajectory):
        assert explain_drop(trajectory, 3) == explain_window(trajectory, 3)

    def test_explain_trajectory_covers_all_drops(self, trajectory):
        explanations = explain_trajectory(trajectory, drop_threshold=0.05)
        explained_windows = {e.window_index for e in explanations}
        assert explained_windows == set(trajectory.drops(0.05))

    def test_explain_trajectory_empty_when_stable(self):
        trajectory = trajectory_of([{1}, {1}, {1}])
        assert explain_trajectory(trajectory) == []
