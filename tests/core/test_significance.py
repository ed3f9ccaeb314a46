"""Tests for repro.core.significance — the paper's S(p, k).

The prior-window counts ``(c, l)`` are read back through the model: the
``_Counts`` rule scores ``1000 c + l``, so a significance snapshot
(``tests/core/histories.py``) spells out the counts the kernel used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.significance import (
    COUNTING_SCHEMES,
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
    SignificanceFunction,
)
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data import Basket, StudyCalendar, TransactionLog
from repro.errors import ConfigError, ConfigWarning
from tests.core.histories import START, trajectory_of


@dataclass(frozen=True)
class _Counts(SignificanceFunction):
    """``S = 1000 c + l``: the counts, legible in a snapshot."""

    name: str = field(default="counts", init=False)

    def score(self, c: int, l: int) -> float:
        return 1000.0 * c + l


def counts_after(windows, counting: str = "paper") -> dict[int, tuple[int, int]]:
    """``(c, l)`` of every item bought in ``windows``, at the window after
    them."""
    windows = list(windows)
    trajectory = trajectory_of(windows + [set()], _Counts(), counting=counting)
    snapshot = trajectory.at(len(windows)).significances
    return {item: (int(s // 1000), int(s % 1000)) for item, s in snapshot.items()}


class TestExponentialSignificance:
    def test_paper_formula(self):
        sig = ExponentialSignificance(alpha=2.0)
        assert sig(c=3, l=1) == 4.0  # 2 ** (3 - 1)
        assert sig(c=1, l=3) == 0.25  # 2 ** (1 - 3)

    def test_zero_when_never_seen(self):
        sig = ExponentialSignificance(alpha=2.0)
        assert sig(c=0, l=5) == 0.0

    def test_alpha_one_is_flat(self):
        with pytest.warns(ConfigWarning):
            sig = ExponentialSignificance(alpha=1.0)
        assert sig(c=5, l=0) == 1.0
        assert sig(c=1, l=4) == 1.0

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialSignificance(alpha=0.0)

    def test_alpha_below_one_warns(self):
        with pytest.warns(ConfigWarning, match="alpha"):
            ExponentialSignificance(alpha=0.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialSignificance()(c=-1, l=0)

    @given(
        c=st.integers(min_value=1, max_value=20),
        l=st.integers(min_value=0, max_value=20),
    )
    def test_monotone_in_c(self, c: int, l: int):
        sig = ExponentialSignificance(alpha=2.0)
        assert sig(c + 1, l) > sig(c, l)

    @given(
        c=st.integers(min_value=1, max_value=20),
        l=st.integers(min_value=0, max_value=20),
    )
    def test_antitone_in_l(self, c: int, l: int):
        sig = ExponentialSignificance(alpha=2.0)
        assert sig(c, l + 1) < sig(c, l)

    def test_name(self):
        assert ExponentialSignificance().name == "exponential"

    def test_long_history_saturates_instead_of_overflowing(self):
        # 8 ** 400 overflows a double; the score must saturate, not crash.
        sig = ExponentialSignificance(alpha=8.0)
        import math

        value = sig(c=400, l=0)
        assert math.isfinite(value)
        assert value > 1e300

    def test_deep_negative_margin_underflows_to_zero(self):
        sig = ExponentialSignificance(alpha=8.0)
        assert sig(c=1, l=500) == 0.0

    def test_saturation_preserves_small_margins_exactly(self):
        sig = ExponentialSignificance(alpha=2.0)
        assert sig(c=10, l=3) == pytest.approx(2.0**7)


class TestAlternativeFunctions:
    def test_frequency_ratio(self):
        sig = FrequencyRatioSignificance()
        assert sig(c=3, l=1) == 0.75
        assert sig(c=0, l=5) == 0.0

    def test_frequency_ratio_bounded(self):
        sig = FrequencyRatioSignificance()
        assert 0.0 < sig(c=1, l=100) <= 1.0

    def test_linear(self):
        sig = LinearSignificance()
        assert sig(c=5, l=2) == 3.0
        assert sig(c=1, l=4) == 0.0  # clipped at zero

    def test_all_share_zero_when_unseen(self):
        for sig in (
            ExponentialSignificance(),
            FrequencyRatioSignificance(),
            LinearSignificance(),
        ):
            assert sig(c=0, l=3) == 0.0


class TestTrackerPaperScheme:
    """The paper's counts: every prior window is a presence or a miss."""

    def test_counts_sum_to_window_index(self):
        # Paper semantics: c(k) + l(k) = k for every item ever seen.
        counts = counts_after([{1}, set(), {1, 2}])
        assert counts[1] == (2, 1)
        # Item 2 first appears at window 2 but prior windows count as misses.
        assert counts[2] == (1, 2)

    def test_significance_before_first_observation_is_zero(self):
        trajectory = trajectory_of([{1}, {2}])
        assert trajectory.at(0).significances == {}
        assert not trajectory.at(0).defined
        # Item 2 is first bought in window 1: no significance there yet.
        assert set(trajectory.at(1).significances) == {1}

    def test_docstring_example(self):
        trajectory = trajectory_of(
            [{1, 2}, {1}, set()], ExponentialSignificance(alpha=2)
        )
        assert trajectory.at(1).significances == {1: 2.0, 2: 2.0}
        at_two = trajectory.at(2).significances
        assert at_two[2] == 1.0  # c=1, l=1
        assert at_two[1] == 4.0  # c=2, l=0

    def test_known_items(self):
        assert set(counts_after([{1, 2}, {3}])) == {1, 2, 3}

    def test_unseen_item_counts(self):
        # Item 99 is first bought in window 1; window 0 counts as a miss.
        assert counts_after([{1}, {99}]) == {1: (1, 1), 99: (1, 1)}

    def test_n_windows_observed(self):
        for n in range(1, 5):
            assert counts_after([{1}] * n) == {1: (n, 0)}
            assert len(trajectory_of([{1}] * n)) == n

    def test_duplicate_items_in_window_count_once(self):
        calendar = StudyCalendar(start=START, n_months=2)
        log = TransactionLog()
        for day in (0, 5):
            log.add(Basket.of(customer_id=1, day=day, items=[1, 1, 1]))
        model = StabilityModel(
            calendar,
            significance=_Counts(),
            config=ExperimentConfig(window_months=1),
        ).fit(log)
        assert model.trajectory(1).at(1).significances == {1: 1000.0}


class TestTrackerSinceFirstSeenScheme:
    """Late adopters: misses only count from an item's first purchase."""

    def test_prior_absences_not_counted(self):
        counts = counts_after([set(), set(), {1}], "since-first-seen")
        assert counts == {1: (1, 0)}

    def test_absences_after_first_seen_counted(self):
        counts = counts_after([{1}, set(), set()], "since-first-seen")
        assert counts == {1: (1, 2)}

    def test_unseen_item_has_zero_l(self):
        counts = counts_after([{1}, set(), {99}], "since-first-seen")
        assert counts == {1: (1, 2), 99: (1, 0)}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="counting scheme"):
            ExperimentConfig(counting="bogus")
        with pytest.raises(ConfigError, match="counting scheme"):
            StabilityMonitor(WindowGrid.daily(10, 5), counting="bogus")

    def test_schemes_constant(self):
        assert COUNTING_SCHEMES == ("paper", "since-first-seen")


class TestTrackerProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        windows=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
            max_size=10,
        )
    )
    def test_paper_scheme_counts_invariant(self, windows):
        for item, (c, l) in counts_after(windows).items():
            assert c + l == len(windows)
            assert c == sum(1 for w in windows if item in w)

    @settings(max_examples=50, deadline=None)
    @given(
        windows=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
            max_size=10,
        )
    )
    def test_snapshot_matches_significance_of(self, windows):
        rule = ExponentialSignificance()
        trajectory = trajectory_of(list(windows) + [set()], rule)
        snapshot = trajectory.at(len(windows)).significances
        # Snapshot covers exactly the items seen at least once.
        assert set(snapshot) == set().union(*windows)
        for item, sig in snapshot.items():
            c = sum(1 for w in windows if item in w)
            want = rule(c, len(windows) - c)
            assert math.isclose(sig, want, rel_tol=1e-12, abs_tol=0.0)
