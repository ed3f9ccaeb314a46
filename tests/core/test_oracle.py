"""The streaming monitor against the paper-equation oracle (``oracle.py``).

Seeded hypothesis histories cover empty windows, a customer who only
ever buys one item, an item first bought in the last window, baskets
dated on window boundaries, and customers registered up front as well as
at their first basket, for alpha in {1.5, 2, 4}.

Tolerance: stabilities and explanation significances agree to a
relative tolerance of 1e-12.  The monitor computes ``S`` in log space,
``exp((c - l) * log(alpha))``, and sums it in first-seen order; the
oracle raises alpha to an integer power and sums in set order.  The two
may differ by a few ulps, never more.  Explanation items, the customers
each window scores and the alarms away from the threshold must match
exactly.
"""

from __future__ import annotations

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.significance import ExponentialSignificance
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from tests.core import oracle

REL_TOL = 1e-12
BETA = 0.5
TOP_K = 3
#: Only customer 0 buys this item, and only ever this item.
SINGLE_ITEM = 0
#: An item nobody buys before the last window.
LATE_ITEM = 99


@st.composite
def histories(draw) -> tuple[list[int], list[tuple[int, int, frozenset[int]]], set[int], float]:
    """``(boundaries, day-ordered baskets, registered customers, alpha)``."""
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
    alpha = draw(st.sampled_from([1.5, 2.0, 4.0]))
    return boundaries, sorted(baskets, key=lambda b: b[1]), registered, alpha


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


@seed(20160315)
@settings(max_examples=300, deadline=None)
@given(histories())
def test_monitor_matches_the_paper_equations(history):
    boundaries, baskets, registered, alpha = history
    monitor = StabilityMonitor(
        WindowGrid(boundaries=tuple(boundaries)),
        beta=BETA,
        significance=ExponentialSignificance(alpha),
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
            want = oracle.stability(own, index, alpha)
            got = report.stabilities[customer]
            assert _close(got, want), (k, customer, got, want)
            if not math.isnan(want) and abs(want - BETA) > 1e-9:
                assert (customer in alarmed) == (want <= BETA), (k, customer)
            explained = monitor.explain_alarm(customer, top_k=TOP_K)
            expected = oracle.explanation(own, index, alpha, TOP_K)
            assert [item for item, _ in explained] == [item for item, _ in expected]
            for (_, got_score), (_, want_score) in zip(explained, expected, strict=True):
                assert _close(got_score, want_score), (k, customer)
