"""Tests for repro.core.batch — the columnar stability kernel.

The differential tests assert that the kernel agrees with the
paper-equation oracle (``oracle.py``) on every (customer, window) cell —
including all-NaN prefixes, single-item customers and empty windows —
and that the exponential rule's two tables (filled in log space by
``significance_from_counts``, and by the scalar rule) agree with each
other.  Histories long enough to hit the ``_MAX_LOG`` saturation cap,
where ``alpha ** (c - l)`` overflows the oracle's floats, are checked
against the hand-computed values.  ``TestKernelBits`` pins the bytes of
the kernel's matrices, which the oracle's 1e-12 tolerance cannot see.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import math
import random

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.batch import (
    BatchStability,
    Scoring,
    _segment_sum,
    pair_significance,
    significance_from_counts,
    significance_table,
    stability_matrix,
)
from repro.core.model import StabilityModel
from repro.core.significance import (
    COUNTING_SCHEMES,
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
)
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.population import PopulationFrame
from repro.data.slabs import build_slab_store, chunks_from_baskets
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, ConfigWarning, DataError
from tests.core import oracle


def _random_log(
    rng: random.Random,
    n_customers: int,
    n_days: int,
    item_pool: int,
    max_baskets: int = 30,
) -> TransactionLog:
    log = TransactionLog()
    for customer in range(n_customers):
        for _ in range(rng.randint(1, max_baskets)):
            log.add(
                Basket.of(
                    customer_id=customer,
                    day=rng.randrange(n_days),
                    items=rng.sample(
                        range(item_pool), rng.randint(0, min(4, item_pool))
                    ),
                )
            )
    return log


def _assert_cell_equal(fast: float, reference: float) -> None:
    if math.isnan(reference):
        assert math.isnan(fast)
    else:
        assert fast == pytest.approx(reference, rel=1e-12)


def _table_scoring(alpha: float, n_windows: int) -> Scoring:
    """The exponential rule through a table of the scalar rule instead of
    the log-space table :meth:`Scoring.of` fills."""
    return Scoring(table=significance_table(ExponentialSignificance(alpha), n_windows))


def _assert_all_backends_agree(log: TransactionLog, grid: WindowGrid, alpha: float):
    population = PopulationFrame.from_log(log, grid)
    result = stability_matrix(population, alpha=alpha)
    table = stability_matrix(population, scoring=_table_scoring(alpha, grid.n_windows))
    assert list(result.customer_ids) == log.customers()
    boundaries = list(grid.boundaries)
    for row, customer_id in enumerate(result.customer_ids):
        baskets = [
            (b.day, set(b.items))
            for b in log.history(int(customer_id))
            if boundaries[0] <= b.day < boundaries[-1]
        ]
        unions = oracle.windowed_unions(baskets, boundaries, 0)
        for k in range(grid.n_windows):
            want = oracle.stability(unions, k, alpha)
            _assert_cell_equal(result.stability[row, k], want)
            _assert_cell_equal(table.stability[row, k], want)


class TestDifferential:
    def test_randomized_histories_agree_across_backends(self):
        """Seeded fuzz loop: two significance paths and the oracle."""
        rng = random.Random(20160315)
        grid = WindowGrid.daily(total_days=120, days_per_window=10)
        for _ in range(25):
            log = _random_log(
                rng,
                n_customers=rng.randint(1, 8),
                n_days=120,
                item_pool=rng.randint(1, 7),
            )
            alpha = rng.choice([1.5, 2.0, 3.0])
            _assert_all_backends_agree(log, grid, alpha)

    def test_all_nan_prefix_and_empty_windows(self):
        """A customer silent until late: NaN until first purchase lands.
        A customer whose baskets are all empty: NaN everywhere."""
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=45, items=[7]))
        log.add(Basket.of(customer_id=1, day=55, items=[7]))
        log.add(Basket.of(customer_id=2, day=5, items=[]))
        log.add(Basket.of(customer_id=2, day=25, items=[]))
        grid = WindowGrid.daily(total_days=80, days_per_window=10)
        result = stability_matrix(PopulationFrame.from_log(log, grid))
        # Windows 0..4 have no prior mass (prior purchases start in w4).
        assert all(math.isnan(v) for v in result.stability[0, :5])
        assert result.stability[0, 5] == 1.0
        assert all(math.isnan(v) for v in result.stability[1])
        _assert_all_backends_agree(log, grid, 2.0)

    def test_single_item_customers(self):
        log = TransactionLog()
        for day in range(0, 60, 10):
            log.add(Basket.of(customer_id=3, day=day, items=[42]))
        grid = WindowGrid.daily(total_days=60, days_per_window=10)
        _assert_all_backends_agree(log, grid, 2.0)

    def test_long_history_hits_saturation_cap(self):
        """alpha ** margin overflows double range; the cap keeps the
        ratio: items 1 and 2 bought every day, then only item 1."""
        log = TransactionLog()
        for day in range(1500):
            log.add(Basket.of(customer_id=1, day=day, items=[1, 2]))
        log.add(Basket.of(customer_id=1, day=1500, items=[1]))
        grid = WindowGrid.daily(total_days=1502, days_per_window=1)
        result = stability_matrix(PopulationFrame.from_log(log, grid), alpha=8.0)
        assert math.isnan(result.stability[0, 0])
        assert (result.stability[0, 1:1500] == 1.0).all()
        # Both items saturate at the same score: losing one halves it.
        assert result.stability[0, 1500] == 0.5
        assert np.isfinite(result.total_mass[0, 1:]).all()
        assert result.total_mass[0, 1500] == 2 * math.exp(700.0)

    def test_wide_grid_needs_an_int32_index(self):
        """201 windows: ``202 ** 2`` does not fit an int16 table index."""
        rng = random.Random(181)
        log = _random_log(rng, n_customers=4, n_days=201, item_pool=4, max_baskets=120)
        grid = WindowGrid.daily(total_days=201, days_per_window=1)
        scoring = Scoring.of(ExponentialSignificance(1.5), "paper", None, grid.n_windows)
        _presence, prior, _significance = pair_significance(
            PopulationFrame.from_log(log, grid), scoring
        )
        assert prior.dtype == np.int32
        _assert_all_backends_agree(log, grid, 1.5)

    def test_lexsort_fallback_for_huge_item_ids(self):
        """Item ids too large for the packed-key fast path."""
        rng = random.Random(7)
        log = TransactionLog()
        big_items = [2**40 + 1, 2**41 + 3, 2**45 + 5]
        for customer in range(4):
            for _ in range(12):
                log.add(
                    Basket.of(
                        customer_id=customer,
                        day=rng.randrange(60),
                        items=rng.sample(big_items, rng.randint(1, 2)),
                    )
                )
        grid = WindowGrid.daily(total_days=60, days_per_window=10)
        _assert_all_backends_agree(log, grid, 2.0)


class TestEncoding:
    @pytest.fixture()
    def log(self) -> TransactionLog:
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[5, 6]))
        log.add(Basket.of(customer_id=1, day=3, items=[5]))
        log.add(Basket.of(customer_id=2, day=25, items=[6]))
        log.add(Basket.of(customer_id=9, day=999, items=[8]))  # off-grid
        return log

    def test_structure(self, log):
        grid = WindowGrid.daily(total_days=30, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        assert list(population.customer_ids) == [1, 2, 9]
        assert population.n_windows == 3
        # Customer 1 owns pairs for items 5 and 6; customer 9 none in-grid.
        assert list(population.pair_offsets) == [0, 2, 3, 3]
        assert list(population.pair_items) == [5, 6, 6]
        # Item 5 present in window 0 only (days 0 and 3 dedupe to one window).
        assert list(population.triple_window[0:1]) == [0]
        assert list(population.item_vocab) == [5, 6]

    def test_window_items_reconstruction(self, log):
        grid = WindowGrid.daily(total_days=30, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        assert population.window_items(0) == [
            frozenset({5, 6}),
            frozenset(),
            frozenset(),
        ]
        assert population.window_items(2) == [frozenset()] * 3

    def test_customer_subset_and_unknown(self, log):
        grid = WindowGrid.daily(total_days=30, days_per_window=10)
        population = PopulationFrame.from_log(log, grid, customers=[2])
        assert list(population.customer_ids) == [2]
        with pytest.raises(DataError):
            PopulationFrame.from_log(log, grid, customers=[777])

    def test_shard_roundtrip(self, log):
        grid = WindowGrid.daily(total_days=30, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        full = stability_matrix(population).stability
        parts = [
            stability_matrix(population.shard(i, i + 1)).stability
            for i in range(population.n_customers)
        ]
        np.testing.assert_array_equal(np.vstack(parts), full)


class TestSegmentSum:
    def test_middle_empty_segment_does_not_corrupt_neighbours(self):
        """Regression: naive reduceat clamping broke the segment *before*
        an empty one."""
        values = np.array([1.0, 2.0])
        offsets = np.array([0, 0, 2, 2])
        np.testing.assert_array_equal(
            _segment_sum(values, offsets), np.array([0.0, 3.0, 0.0])
        )

    def test_all_empty(self):
        out = _segment_sum(np.empty((4, 0)), np.array([0, 0, 0]))
        assert out.shape == (4, 2)
        assert (out == 0).all()

    def test_two_dimensional(self):
        """Segments run along the last axis, one sum per row."""
        values = np.arange(8, dtype=float).reshape(4, 2).T
        offsets = np.array([0, 1, 4])
        np.testing.assert_array_equal(
            _segment_sum(values, offsets), np.array([[0.0, 12.0], [1.0, 15.0]])
        )

    def test_order_does_not_depend_on_the_layout(self):
        """Row-major and column-major copies of the same values sum to
        the same bits, segments of up to 300 elements included."""
        rng = np.random.default_rng(5)
        offsets = np.concatenate([[0], np.cumsum(rng.integers(0, 300, 40))])
        values = rng.random((6, offsets[-1])) * 10.0 ** rng.integers(-8, 8, (6, offsets[-1]))
        got = _segment_sum(values, offsets)
        assert _segment_sum(np.asfortranarray(values), offsets).tobytes() == got.tobytes()
        rows = [_segment_sum(row, offsets) for row in values]
        assert np.vstack(rows).tobytes() == got.tobytes()


class TestSignificanceKernel:
    def test_matches_scalar_rule(self):
        rule = ExponentialSignificance(alpha=3.0)
        counts = np.array([0, 1, 2, 5, 6])
        k = 6
        got = significance_from_counts(counts, k, alpha=3.0)
        expected = [rule(int(c), k - int(c)) for c in counts]
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_per_element_prior_windows(self):
        got = significance_from_counts(
            np.array([1.0, 1.0]), np.array([2.0, 4.0]), alpha=2.0
        )
        np.testing.assert_array_equal(got, [1.0, 0.25])

    def test_saturation_cap(self):
        huge = significance_from_counts(np.array([2000.0]), 0, alpha=2.0)
        assert np.isfinite(huge[0])
        assert huge[0] == math.exp(700.0)

    @pytest.mark.parametrize("counting", COUNTING_SCHEMES)
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
    def test_exponential_table_is_the_log_space_rule(self, alpha, counting):
        """Cell by cell the table is ``significance_from_counts`` at
        ``(c, c + l)``; row 0 and the unreachable cells are 0."""
        n_windows = 30
        table = Scoring.of(
            ExponentialSignificance(alpha), counting, None, n_windows
        ).table
        assert table.shape == (n_windows + 1, n_windows + 1)
        c, l = np.indices(table.shape)
        reachable = c + l <= n_windows
        want = significance_from_counts(c[reachable], (c + l)[reachable], alpha)
        assert table[reachable].tobytes() == want.tobytes()
        assert not table[0].any()
        assert not table[~reachable].any()

    def test_prior_counts_are_narrow(self):
        """Presence is bool; counts take the narrowest signed integer
        that holds ``(n_windows + 1) ** 2``."""
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        for n_windows, dtype in ((10, np.int8), (14, np.int16), (180, np.int16), (181, np.int32)):
            grid = WindowGrid.daily(total_days=n_windows, days_per_window=1)
            scoring = Scoring.of(ExponentialSignificance(), "paper", None, n_windows)
            presence, prior, significance = pair_significance(
                PopulationFrame.from_log(log, grid), scoring
            )
            assert presence.dtype == np.bool_
            assert prior.dtype == dtype, n_windows
            assert significance.dtype == np.float64
            assert prior[:, 0].tolist() == [0] + [1] * (n_windows - 1)

    def test_table_for_another_grid_rejected(self):
        """A flat index into a larger table would read the wrong cells."""
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        frame = PopulationFrame.from_log(log, WindowGrid.daily(total_days=14, days_per_window=1))
        for n_windows in (13, 15):
            scoring = Scoring.of(ExponentialSignificance(), "paper", None, n_windows)
            with pytest.raises(ConfigError, match="does not fit a grid of 14 windows"):
                stability_matrix(frame, scoring=scoring)


class TestBatchChurnScores:
    """``StabilityModel.churn_scores``: one slice of the stability matrix."""

    @pytest.fixture()
    def model(self) -> StabilityModel:
        rng = random.Random(11)
        calendar = StudyCalendar(start=_dt.date(2000, 1, 1), n_months=5)
        log = _random_log(rng, n_customers=6, n_days=calendar.n_days, item_pool=5)
        return StabilityModel(
            calendar, config=ExperimentConfig(window_months=1)
        ).fit(log)

    def test_matches_trajectory_engine(self, model):
        scores = model.churn_scores(4)
        assert list(scores) == model.customers()
        for customer_id, score in scores.items():
            trajectory = model.trajectory(customer_id)
            assert score == trajectory.churn_score(4)
            assert score == 1.0 - trajectory.at(4).stability

    def test_undefined_maps_to_neutral(self, model):
        """No customer has prior significance mass in window 0."""
        assert set(model.churn_scores(0).values()) == {0.5}

    def test_bad_window_rejected(self, model):
        with pytest.raises(ConfigError):
            model.churn_scores(99)

    def test_unknown_customer_rejected(self, model):
        with pytest.raises(DataError):
            model.churn_scores(4, customers=[424242])

    def test_subset(self, model):
        scores = model.churn_scores(4, customers=[2, 4])
        assert set(scores) == {2, 4}


class TestParallelFit:
    def test_n_jobs_identical_to_serial(self):
        rng = random.Random(5)
        log = _random_log(rng, n_customers=9, n_days=60, item_pool=6)
        grid = WindowGrid.daily(total_days=60, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        serial = stability_matrix(population, n_jobs=1)
        parallel = stability_matrix(population, n_jobs=3)
        np.testing.assert_array_equal(serial.stability, parallel.stability)
        np.testing.assert_array_equal(serial.kept_mass, parallel.kept_mass)
        np.testing.assert_array_equal(serial.total_mass, parallel.total_mass)

    def test_bad_n_jobs_rejected(self):
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        grid = WindowGrid.daily(total_days=10, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        with pytest.raises(ConfigError):
            stability_matrix(population, n_jobs=0)

    def test_more_jobs_than_customers(self):
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        log.add(Basket.of(customer_id=1, day=12, items=[1]))
        grid = WindowGrid.daily(total_days=20, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        result = stability_matrix(population, n_jobs=8)  # falls back to serial
        assert result.stability.shape == (1, 2)


#: ``(rule, counting, item weights)`` per pinned scoring case.
BITS_CASES = {
    "alpha-2": (ExponentialSignificance(2.0), "paper", None),
    "alpha-4": (ExponentialSignificance(4.0), "paper", None),
    "alpha-2-weighted": (ExponentialSignificance(2.0), "paper", {1: 2.5, 3: 0.25, 7: 4.0}),
    "frequency-ratio-since-first-seen": (FrequencyRatioSignificance(), "since-first-seen", None),
    "linear": (LinearSignificance(), "paper", None),
}

#: sha256 (first 16 hex digits) of the stability, kept and total bytes of
#: each case on :func:`_bits_log`, fixed before the kernel read every rule
#: from one table.
PINNED_BITS = {
    "alpha-2": "1317ba5ba4ead9de",
    "alpha-4": "ef988ffc6b16a803",
    "alpha-2-weighted": "4e5de29dd3370078",
    "frequency-ratio-since-first-seen": "7ca91947fc01082c",
    "linear": "68ad29d301a7b9f7",
}


def _bits_log() -> tuple[TransactionLog, WindowGrid]:
    """Forty customers with habits: each buys up to 14 items, each item
    with its own probability per visit, about twice a 15-day window.
    Habitual items reach the margins (7 at alpha 2, 13 at alpha 4) where
    ``np.exp`` and ``math.exp`` round apart, and customers with more
    than 9 items take ``reduceat``'s pairwise sum."""
    rng = random.Random(2016)
    log = TransactionLog()
    for customer in range(40):
        habits = {item: rng.random() for item in rng.sample(range(14), rng.randint(1, 14))}
        for visit in range(0, 300, 5):
            if rng.random() < 0.6:
                items = [item for item, p in habits.items() if rng.random() < p]
                log.add(Basket.of(customer_id=customer, day=visit + rng.randrange(5), items=items))
    return log, WindowGrid.daily(total_days=300, days_per_window=15)


def _bits(result: BatchStability) -> str:
    digest = hashlib.sha256()
    for matrix in (result.stability, result.kept_mass, result.total_mass):
        digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


class TestKernelBits:
    """The kernel's output bytes, in RAM and slab-backed, serial and
    sharded: a last-ulp change to any rule fails here."""

    @pytest.fixture(scope="class")
    def frames(self, tmp_path_factory) -> dict[str, PopulationFrame]:
        log, grid = _bits_log()
        store = build_slab_store(
            chunks_from_baskets(log, chunk_baskets=64),
            grid,
            tmp_path_factory.mktemp("bits-store"),
            fingerprint="kernel-bits",
            customers_per_shard=7,
            n_buckets=2,
        )
        return {"in-ram": PopulationFrame.from_log(log, grid), "slab": store.frame()}

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("source", ["in-ram", "slab"])
    def test_pinned(self, frames, source, n_jobs):
        frame = frames[source]
        for case, (rule, counting, weights) in BITS_CASES.items():
            scoring = Scoring.of(rule, counting, weights, frame.n_windows)
            result = stability_matrix(frame, n_jobs=n_jobs, scoring=scoring)
            assert _bits(result) == PINNED_BITS[case], case

    def test_alpha_argument_is_the_paper_scoring(self, frames):
        result = stability_matrix(frames["in-ram"], alpha=4.0)
        assert _bits(result) == PINNED_BITS["alpha-4"]


class TestAlphaValidation:
    def test_nonpositive_alpha_rejected(self):
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        grid = WindowGrid.daily(total_days=10, days_per_window=10)
        with pytest.raises(ConfigError):
            stability_matrix(PopulationFrame.from_log(log, grid), alpha=0.0)

    def test_alpha_at_most_one_warns(self):
        log = TransactionLog()
        log.add(Basket.of(customer_id=1, day=0, items=[1]))
        grid = WindowGrid.daily(total_days=10, days_per_window=10)
        population = PopulationFrame.from_log(log, grid)
        with pytest.warns(ConfigWarning):
            stability_matrix(population, alpha=1.0)
        with pytest.warns(ConfigWarning):
            StabilityModel(StudyCalendar.paper(), config=ExperimentConfig(alpha=0.5))
