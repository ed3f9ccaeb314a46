"""The stability model and the streaming monitor against the
paper-equation oracle (``oracle.py``).

Seeded hypothesis histories cover empty windows, a customer who only
ever buys one item, an item first bought in the last window, baskets
dated on window boundaries, and (for the monitor) customers registered
up front as well as at their first basket.  Rules: the exponential one
at alpha in {1.5, 2, 4}, the frequency ratio and the linear margin, each
under both counting schemes.  The model is checked with and without item
weights, fitted from a log, from an in-RAM frame and from a slab store;
a fixed set of histories also runs sharded over two workers.

Tolerance: stabilities and explanation significances agree to a
relative tolerance of 1e-12.  The kernel computes the exponential ``S``
in log space, ``exp((c - l) * log(alpha))``, and sums per customer in
item or first-seen order; the oracle raises alpha to an integer power
and sums in set order.  The two may differ by a few ulps, never more.
Explanation items, the customers each window scores and the alarms away
from the threshold must match exactly.
"""

from __future__ import annotations

import datetime as _dt
import math
import tempfile

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.significance import (
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
)
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.population import PopulationFrame
from repro.data.slabs import build_slab_store, chunks_from_baskets
from repro.data.transactions import TransactionLog
from tests.core import oracle

REL_TOL = 1e-12
BETA = 0.5
TOP_K = 3
#: Only customer 0 buys this item, and only ever this item.
SINGLE_ITEM = 0
#: An item nobody buys before the last window.
LATE_ITEM = 99
#: ``(oracle rule, model rule)`` pairs.
RULES = [
    (1.5, ExponentialSignificance(1.5)),
    (2.0, ExponentialSignificance(2.0)),
    (4.0, ExponentialSignificance(4.0)),
    (oracle.frequency_ratio, FrequencyRatioSignificance()),
    (oracle.linear, LinearSignificance()),
]
COUNTING = ["paper", "since-first-seen"]


@st.composite
def histories(draw):
    """``(boundaries, day-ordered baskets, registered customers, rule,
    counting)``."""
    width = draw(st.integers(1, 6))
    n_windows = draw(st.integers(1, 7))
    boundaries = [k * width for k in range(n_windows + 1)]
    last_day = boundaries[-1] - 1
    days = st.one_of(st.sampled_from(boundaries[:-1]), st.integers(0, last_day))
    items = st.frozensets(st.integers(1, 6), min_size=1, max_size=4)
    baskets = draw(st.lists(st.tuples(st.integers(1, 6), days, items), max_size=40))
    baskets += draw(
        st.lists(
            st.tuples(st.just(0), days, st.just(frozenset({SINGLE_ITEM}))),
            max_size=8,
        )
    )
    if draw(st.booleans()):
        baskets.append(
            (
                draw(st.integers(1, 6)),
                draw(st.integers(boundaries[-2], last_day)),
                frozenset({LATE_ITEM}),
            )
        )
    # Ids 7 and 8 never buy: registered, they stay silent throughout.
    registered = draw(st.sets(st.integers(0, 8), max_size=3))
    rule = draw(st.sampled_from(RULES))
    counting = draw(st.sampled_from(COUNTING))
    return boundaries, sorted(baskets, key=lambda b: b[1]), registered, rule, counting


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


@seed(20160315)
@settings(max_examples=300, deadline=None)
@given(histories())
def test_monitor_matches_the_paper_equations(history):
    boundaries, baskets, registered, (rule, significance), counting = history
    monitor = StabilityMonitor(
        WindowGrid(boundaries=tuple(boundaries)),
        beta=BETA,
        significance=significance,
        counting=counting,
    )
    first_window = dict.fromkeys(registered, 0)
    for customer in sorted(registered):
        monitor.register(customer)
    for customer, day, _ in baskets:
        first_window.setdefault(customer, oracle.window_index(boundaries, day))
    unions = {
        customer: oracle.windowed_unions(
            [(day, items) for owner, day, items in baskets if owner == customer],
            boundaries,
            first,
        )
        for customer, first in first_window.items()
    }

    n_windows = len(boundaries) - 1
    pending = list(baskets)
    for k in range(n_windows):
        # Window k's baskets, then the clock to the next window's start.
        while pending and pending[0][1] < boundaries[k + 1]:
            customer, day, items = pending.pop(0)
            basket = Basket.of(customer_id=customer, day=day, items=items)
            assert monitor.ingest(basket) == []
        reports = (
            monitor.advance_to_day(boundaries[k + 1])
            if k + 1 < n_windows
            else monitor.finish()
        )
        assert [report.window_index for report in reports] == [k]
        report = reports[0]
        scored = {c for c, first in first_window.items() if first <= k}
        assert set(report.stabilities) == scored
        alarmed = {alarm.customer_id for alarm in report.alarms}
        for customer in scored:
            own = unions[customer]
            index = k - first_window[customer]
            want = oracle.stability(own, index, rule, counting)
            got = report.stabilities[customer]
            assert _close(got, want), (k, customer, got, want)
            if not math.isnan(want) and abs(want - BETA) > 1e-9:
                assert (customer in alarmed) == (want <= BETA), (k, customer)
            explained = monitor.explain_alarm(customer, top_k=TOP_K)
            expected = oracle.explanation(own, index, rule, TOP_K, counting)
            assert [item for item, _ in explained] == [item for item, _ in expected]
            for (_, got_score), (_, want_score) in zip(explained, expected, strict=True):
                assert _close(got_score, want_score), (k, customer)


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
START = _dt.date(2000, 1, 1)


@st.composite
def model_histories(draw):
    """``(calendar, window_months, day-ordered baskets, rule, counting,
    weights)``; with an odd month count and 2-month windows the last
    month is off the grid."""
    window_months = draw(st.integers(1, 2))
    n_months = draw(st.integers(window_months, 8))
    calendar = StudyCalendar(start=START, n_months=n_months)
    starts = [
        calendar.month_start_day(k * window_months)
        for k in range(n_months // window_months)
    ]
    days = st.one_of(st.sampled_from(starts), st.integers(0, calendar.n_days - 1))
    items = st.frozensets(st.integers(1, 6), min_size=1, max_size=4)
    baskets = draw(
        st.lists(st.tuples(st.integers(1, 6), days, items), min_size=1, max_size=40)
    )
    baskets += draw(
        st.lists(
            st.tuples(st.just(0), days, st.just(frozenset({SINGLE_ITEM}))),
            max_size=8,
        )
    )
    if draw(st.booleans()):
        last = calendar.month_start_day(len(starts) * window_months) - 1
        baskets.append(
            (draw(st.integers(1, 6)), draw(st.integers(starts[-1], last)), frozenset({LATE_ITEM}))
        )
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.dictionaries(
                st.sampled_from([SINGLE_ITEM, 1, 2, 3, LATE_ITEM]),
                st.sampled_from([0.25, 2.0, 3.0]),
                max_size=3,
            )
        )
    rule = draw(st.sampled_from(RULES))
    counting = draw(st.sampled_from(COUNTING))
    ordered = sorted(baskets, key=lambda b: b[1])
    return calendar, window_months, ordered, rule, counting, weights


def _frames(log, grid, directory):
    """The log, its in-RAM frame and a slab-store frame (three-customer
    store shards, so an out-of-core fit walks several)."""
    store = build_slab_store(
        chunks_from_baskets(log, chunk_baskets=16),
        grid,
        directory,
        fingerprint="oracle",
        customers_per_shard=3,
        n_buckets=2,
    )
    return {"log": log, "frame": PopulationFrame.from_log(log, grid), "slab": store.frame()}


def _check_model(history, n_jobs: int = 1) -> None:
    calendar, window_months, baskets, (rule, significance), counting, weights = history
    log = TransactionLog(
        [Basket.of(customer_id=c, day=d, items=items) for c, d, items in baskets]
    )
    config = ExperimentConfig(window_months=window_months, counting=counting, n_jobs=n_jobs)
    grid = config.grid(calendar)
    boundaries = list(grid.boundaries)
    unions = {
        customer: oracle.windowed_unions(
            [
                (d, items)
                for c, d, items in baskets
                if c == customer and d < boundaries[-1]
            ],
            boundaries,
            0,
        )
        for customer in {c for c, _, _ in baskets}
    }
    with tempfile.TemporaryDirectory() as directory:
        for source, data in _frames(log, grid, directory).items():
            model = StabilityModel(
                calendar, significance=significance, item_weights=weights, config=config
            ).fit(data)
            assert model.customers() == sorted(unions), source
            for customer, own in unions.items():
                trajectory = model.trajectory(customer)
                for k in range(grid.n_windows):
                    where = (source, customer, k)
                    want = oracle.stability(own, k, rule, counting, weights)
                    assert _close(model.stability_at(customer, k), want), where
                    assert _close(trajectory.at(k).stability, want), where
                    snapshot = oracle.significances(own, k, rule, counting, weights)
                    got = trajectory.at(k).significances
                    assert set(got) == set(snapshot), where
                    for item, value in snapshot.items():
                        assert _close(got[item], value), where
                    explained = model.explain(customer, k, top_k=TOP_K).missing
                    expected = oracle.explanation(own, k, rule, TOP_K, counting, weights)
                    assert [m.item for m in explained] == [i for i, _ in expected], where
                    for m, (_, value) in zip(explained, expected, strict=True):
                        assert _close(m.significance, value), where


@seed(20160315)
@settings(max_examples=150, deadline=None)
@given(model_histories())
def test_model_matches_the_paper_equations(history):
    _check_model(history)


#: Fixed histories for the sharded fit: eight customers over six
#: one-month windows, every rule and counting scheme, with and without
#: weights.
_SHARDED = [
    (RULES[1], "paper", None),
    (RULES[2], "since-first-seen", {1: 3.0}),
    (RULES[3], "paper", {2: 0.25}),
    (RULES[4], "since-first-seen", None),
    (RULES[0], "paper", {1: 2.0, 5: 3.0}),
]


def test_sharded_model_matches_the_paper_equations():
    calendar = StudyCalendar(start=START, n_months=6)
    baskets = []
    for customer in range(8):
        for month in range(6):
            if (customer + month) % 4 == 3:
                continue  # an empty window
            items = frozenset(
                item for item in range(1, 7) if (item * (customer + 1) + month) % 3
            )
            baskets.append((customer, calendar.month_start_day(month) + customer, items))
    baskets.sort(key=lambda b: b[1])
    for rule, counting, weights in _SHARDED:
        _check_model((calendar, 1, baskets, rule, counting, weights), n_jobs=2)
