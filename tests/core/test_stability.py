"""The paper's Stability_i^k, through StabilityModel on stated histories.

Each history is one item set per window (``tests/core/histories.py``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import StabilityModel
from repro.core.significance import ExponentialSignificance
from repro.errors import ConfigError
from tests.core.histories import history_log, trajectory_of


class TestPaperDefinition:
    def test_first_window_undefined(self):
        trajectory = trajectory_of([{1, 2}])
        assert math.isnan(trajectory.at(0).stability)
        assert not trajectory.at(0).defined

    def test_all_items_kept_gives_one(self):
        # "If all products are contained in window k, the stability of the
        # customer is equal to 1."
        trajectory = trajectory_of([{1, 2}, {1, 2}, {1, 2}])
        assert trajectory.at(1).stability == 1.0
        assert trajectory.at(2).stability == 1.0

    def test_hand_computed_example(self):
        # Windows: {a,b}, {a}, {a} with alpha=2 (a = 1, b = 2).
        # At k=2: a has c=2,l=0 -> S=4; b has c=1,l=1 -> S=1.
        # u_2={a}: stability = 4 / (4+1) = 0.8.
        trajectory = trajectory_of([{1, 2}, {1}, {1}], ExponentialSignificance(2.0))
        assert trajectory.at(2).stability == pytest.approx(0.8)
        assert trajectory.at(2).kept_mass == pytest.approx(4.0)
        assert trajectory.at(2).total_mass == pytest.approx(5.0)

    def test_drop_proportional_to_significance(self):
        # "The more significant a product is, the more the stability will
        # decrease if this product is not present in window k."
        history_big = [{1, 2}, {1, 2}, {1, 2}, {2}]  # drop item 1 (S=8)
        history_small = [{1, 2}, {2}, {2}, {2}]  # item 1 faded (S small)
        drop_big = trajectory_of(history_big).at(3).stability
        drop_small = trajectory_of(history_small).at(3).stability
        assert drop_big < drop_small

    def test_new_items_do_not_change_stability(self):
        # An item with c=0 has S=0: buying novelty neither helps nor hurts.
        base = trajectory_of([{1}, {1}])
        with_novelty = trajectory_of([{1}, {1, 99}])
        assert base.at(1).stability == with_novelty.at(1).stability == 1.0

    def test_empty_window_has_zero_stability(self):
        trajectory = trajectory_of([{1, 2}, set()])
        assert trajectory.at(1).stability == 0.0

    def test_no_history_stays_undefined(self):
        trajectory = trajectory_of([set(), set(), {1}])
        assert not trajectory.at(0).defined
        assert not trajectory.at(1).defined
        assert not trajectory.at(2).defined  # item 1 is new: no prior mass
        # Once item 1 has been seen, stability becomes defined.
        trajectory2 = trajectory_of([set(), {1}, {1}])
        assert trajectory2.at(2).defined


class TestWindowStabilityRecord:
    def test_missing_items(self):
        trajectory = trajectory_of([{1, 2}, {1}])
        missing = trajectory.at(1).missing_items()
        assert set(missing) == {2}
        assert missing[2] == pytest.approx(2.0)

    def test_significances_snapshot_is_prior_only(self):
        trajectory = trajectory_of([{1}, {2}])
        # At window 1, only item 1 has prior mass.
        assert set(trajectory.at(1).significances) == {1}


class TestTrajectoryApi:
    def test_len_getitem_values(self):
        trajectory = trajectory_of([{1}, {1}, {1}], customer_id=7)
        assert len(trajectory) == 3
        assert trajectory[1].stability == 1.0
        values = trajectory.values()
        assert math.isnan(values[0]) and values[1:] == [1.0, 1.0]
        assert trajectory.customer_id == 7

    def test_at_out_of_range(self):
        trajectory = trajectory_of([{1}])
        with pytest.raises(ConfigError, match="out of range"):
            trajectory.at(5)

    def test_churn_score_complements_stability(self):
        trajectory = trajectory_of([{1, 2}, {1}])
        assert trajectory.churn_score(1) == pytest.approx(
            1.0 - trajectory.at(1).stability
        )

    def test_churn_score_neutral_when_undefined(self):
        trajectory = trajectory_of([{1}])
        assert trajectory.churn_score(0) == 0.5

    def test_drops_detects_decreases(self):
        trajectory = trajectory_of([{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1}])
        assert trajectory.drops(threshold=0.1) == [3]

    def test_drops_skips_undefined_windows(self):
        trajectory = trajectory_of([{1}, {1}])
        assert trajectory.drops() == []


class TestStabilityProperties:
    item_sets = st.lists(
        st.frozensets(st.integers(min_value=0, max_value=6), max_size=5),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=100, deadline=None)
    @given(item_sets=item_sets, alpha=st.floats(min_value=1.01, max_value=8.0))
    def test_stability_in_unit_interval(self, item_sets, alpha):
        trajectory = trajectory_of(item_sets, ExponentialSignificance(alpha))
        for record in trajectory.records:
            if record.defined:
                assert 0.0 <= record.stability <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(item_sets=item_sets)
    def test_kept_mass_bounded_by_total(self, item_sets):
        trajectory = trajectory_of(item_sets)
        for record in trajectory.records:
            assert record.kept_mass <= record.total_mass + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(item_sets=item_sets)
    def test_repeat_everything_gives_stability_one(self, item_sets):
        # Buying the union of everything ever bought keeps stability at 1.
        union: frozenset[int] = frozenset()
        windows = []
        for items in item_sets:
            union = union | items
            windows.append(union)
        trajectory = trajectory_of(windows)
        for record in trajectory.records:
            if record.defined:
                assert record.stability == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(item_sets=item_sets, counting=st.sampled_from(["paper", "since-first-seen"]))
    def test_counting_schemes_share_invariants(self, item_sets, counting):
        trajectory = trajectory_of(item_sets, counting=counting)
        for record in trajectory.records:
            if record.defined:
                assert 0.0 <= record.stability <= 1.0 + 1e-12

    def test_weighted_stability_weights_the_loss(self):
        # Two equally-habitual items; losing the expensive one hurts more.
        windows = [{1, 2}, {1, 2}, {1, 2}, {2}]
        plain = trajectory_of(windows)
        weighted = trajectory_of(windows, item_weights={1: 9.0, 2: 1.0})
        # Item 1 (weight 9) was dropped: weighted stability falls harder.
        assert weighted.at(3).stability < plain.at(3).stability
        assert weighted.at(3).stability == pytest.approx(1.0 / 10.0)

    def test_weighted_stability_still_one_when_all_kept(self):
        windows = [{1, 2}, {1, 2}, {1, 2}]
        weighted = trajectory_of(windows, item_weights={1: 5.0, 2: 0.5})
        assert weighted.at(2).stability == 1.0

    def test_missing_weight_defaults_to_one(self):
        windows = [{1, 2}, {1, 2}, {2}]
        weighted = trajectory_of(windows, item_weights={1: 1.0})
        plain = trajectory_of(windows)
        assert weighted.at(2).stability == plain.at(2).stability

    def test_nonpositive_weights_rejected(self):
        # Checked when the model is built, before any fit.
        calendar, _ = history_log([{1}])
        for weight in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match="positive"):
                StabilityModel(calendar, item_weights={1: weight})

    def test_weighted_explanation_reranks(self):
        from repro.core.explanation import explain_window

        windows = [{1, 2}, {1, 2}, {1, 2}, set()]
        weighted = trajectory_of(windows, item_weights={1: 1.0, 2: 50.0})
        explanation = explain_window(weighted, 3)
        assert explanation.top_item is not None
        assert explanation.top_item.item == 2  # the expensive loss leads

    def test_very_long_history_stays_finite(self):
        # Regression: alpha ** (c - l) used to overflow past ~1000 windows.
        windows = [{1, 2}] * 1200 + [{1}]
        trajectory = trajectory_of(windows, ExponentialSignificance(8.0))
        final = trajectory.at(1200)
        assert final.defined
        # Both items saturate at the same score, so losing one of two
        # equally-significant items halves the stability.
        assert final.stability == pytest.approx(0.5)
