"""Online (streaming) stability monitoring.

The batch :class:`~repro.core.model.StabilityModel` recomputes trajectories
from a full log; a deployed system instead sees receipts arrive one by one
and must re-score customers at every window close.
:class:`StabilityMonitor` provides that deployment shape: it ingests
baskets in timestamp order, closes windows as the clock advances, emits
:class:`~repro.core.detector.Alarm` objects for customers whose stability
fell to the threshold, and keeps the evidence needed to explain each
alarm.

The paper's per-customer state is two integers per (customer, item) —
the presence count ``c`` behind ``S(p, k) = alpha ** (c - l)`` and the
window the item was first seen in — plus the open window's item union
``u_k``.  The monitor holds the integers as flat columns, one row per
customer in ascending id order: exactly the columns a snapshot stores
(:mod:`repro.runtime.snapshot`), so a snapshot hands them out and a
restore adopts them.

* ``customers``, ``n_windows_observed`` (windows since the customer was
  registered) and ``last_stability`` (``nan`` while undefined);
* ``items``, ``presence`` and ``first_seen`` (a window index counted
  from registration): customer ``i`` owns rows
  ``item_offsets[i]:item_offsets[i + 1]``, in first-seen order, items
  first seen in the same window in ascending order;
* ``missing_customers`` / ``missing_offsets`` / ``missing_items`` /
  ``missing_significance``: the items each customer missed in the last
  closed window, with their significance — the evidence
  :meth:`StabilityMonitor.explain_alarm` ranks;
* ``alarm_customers`` / ``alarm_windows`` / ``alarm_stability``: every
  alarm the monitor raised, one row per alarm, appended in close order
  (so ``(window, customer)`` strictly ascends) and never dropped.

Next to the columns the monitor keeps the open window as a list of
:class:`ItemUnion` parts, one per run of same-window days it ingested
(:meth:`StabilityMonitor.ingest_days` takes a batch of days as columns
and calls ``window_of_day`` once per day), merged into one at a window
close or a snapshot.  A window close scores every row with one
vectorised significance pass, then appends each customer's new items to
its row.

Memory is O(customers x items-ever-bought) plus one row per alarm raised,
independent of history length otherwise — the property that makes the
6M-customer deployment of the paper's retailer feasible.
:func:`monitor_scores` reads the served output (each scored customer's
last stability, flag and alarms) straight from these columns.

Equivalence with the batch model is pinned by tests: feeding a log through
the monitor produces exactly the same stability values as
``StabilityModel.fit`` on that log.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.batch import Scoring, _segment_sum
from repro.core.detector import Alarm
from repro.core.significance import COUNTING_SCHEMES, ExponentialSignificance, SignificanceFunction
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.errors import ConfigError, DataError

if TYPE_CHECKING:
    from repro.config import ExperimentConfig
    from repro.data.calendar import StudyCalendar

__all__ = [
    "STATE_COLUMNS",
    "ItemUnion",
    "item_union",
    "merge_unions",
    "WindowCloseReport",
    "StabilityMonitor",
    "monitor_scores",
]

#: The monitor's significance state: column name -> dtype (see the
#: module docstring).
STATE_COLUMNS: dict[str, type] = {
    "customers": np.int64,
    "n_windows_observed": np.int64,
    "last_stability": np.float64,
    "item_offsets": np.int64,
    "items": np.int64,
    "presence": np.int64,
    "first_seen": np.int64,
    "missing_customers": np.int64,
    "missing_offsets": np.int64,
    "missing_items": np.int64,
    "missing_significance": np.float64,
    "alarm_customers": np.int64,
    "alarm_windows": np.int64,
    "alarm_stability": np.float64,
}


def row_offsets(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Offsets slicing values grouped by ascending ``rows`` into
    ``n_rows`` rows (row ``i`` owns ``offsets[i]:offsets[i + 1]``)."""
    counts = np.bincount(rows, minlength=n_rows)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def pair_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One int64 key per ``(row, value)`` pair, ordered as the pairs are
    (by row, then value): equal pairs get equal keys.

    Sorting these keys is several times faster than a two-key
    ``np.lexsort``.  Values are ranked densely first when their spread
    times the row count would not fit.
    """
    if values.size == 0:
        return np.zeros(0, np.int64)
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span * (int(rows.max()) + 1) >= 2**62:
        universe, values = np.unique(values, return_inverse=True)
        low, span = 0, len(universe)
    return rows.astype(np.int64) * span + (values - low)


def insert_customers(columns: dict[str, np.ndarray], ids: np.ndarray) -> None:
    """Give each customer in ``ids`` (none of them a row yet) an empty
    row, in place: no items, no windows observed, undefined stability —
    the state of a customer registered in the open window."""
    old = columns["customers"]
    merged = np.union1d(old, ids)
    rows = np.searchsorted(merged, old)
    n_windows = np.zeros(len(merged), np.int64)
    n_windows[rows] = columns["n_windows_observed"]
    last_stability = np.full(len(merged), np.nan)
    last_stability[rows] = columns["last_stability"]
    counts = np.zeros(len(merged), np.int64)
    counts[rows] = np.diff(columns["item_offsets"])
    columns.update(
        customers=merged,
        n_windows_observed=n_windows,
        last_stability=last_stability,
        item_offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
    )


def customer_rows(columns: dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    """The row of each customer in ``ids``, after giving each customer
    without a row an empty one (:func:`insert_customers`)."""
    customers = columns["customers"]
    rows = np.searchsorted(customers, ids)
    known = rows < len(customers)
    known[known] = customers[rows[known]] == ids[known]
    if not known.all():
        insert_customers(columns, np.unique(ids[~known]))
        rows = np.searchsorted(columns["customers"], ids)
    return rows


class ItemUnion(NamedTuple):
    """Item unions of some customers: ``customers`` ascending, customer
    ``i`` owning ``items[item_offsets[i]:item_offsets[i + 1]]``,
    ascending (an empty slice when all their baskets were empty)."""

    customers: np.ndarray
    item_offsets: np.ndarray
    items: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_INTS = _frozen(np.zeros(0, np.int64))
_EMPTY_UNION = ItemUnion(_NO_INTS, _frozen(np.zeros(1, np.int64)), _NO_INTS)
_ONE_EMPTY_SLICE = _frozen(np.zeros(2, np.int64))


def item_union(customers: np.ndarray, sizes: np.ndarray, items: np.ndarray) -> ItemUnion:
    """The item union of some baskets: basket ``j`` is customer
    ``customers[j]`` buying the next ``sizes[j]`` of ``items`` (an item
    may repeat, in a basket or across a customer's baskets)."""
    ids, rows = np.unique(customers, return_inverse=True)
    item_rows = np.repeat(rows, sizes)
    # The first of each sorted (customer, item) key is the union, by
    # customer, then item.
    _, first = np.unique(pair_keys(item_rows, items), return_index=True)
    return ItemUnion(ids, row_offsets(item_rows[first], len(ids)), items[first])


def merge_unions(unions: Sequence[ItemUnion]) -> ItemUnion:
    """One :class:`ItemUnion` of several."""
    if len(unions) == 1:
        return unions[0]
    if not unions:
        return _EMPTY_UNION
    return item_union(
        np.concatenate([union.customers for union in unions]),
        np.concatenate([np.diff(union.item_offsets) for union in unions]),
        np.concatenate([union.items for union in unions]),
    )


#: Baskets :meth:`StabilityMonitor.ingest_many` gathers, in whole days,
#: before it feeds them on.
_CHUNK_BASKETS = 4096


def _empty_columns() -> dict[str, np.ndarray]:
    columns = {name: np.zeros(0, dtype) for name, dtype in STATE_COLUMNS.items()}
    columns["item_offsets"] = np.zeros(1, np.int64)
    columns["missing_offsets"] = np.zeros(1, np.int64)
    return columns


def _row_of(ids: np.ndarray, customer_id: int) -> int | None:
    """The row of ``customer_id`` in the ascending ``ids``, if any."""
    row = int(np.searchsorted(ids, customer_id))
    return row if row < len(ids) and ids[row] == customer_id else None


def _match_pairs(
    rows: np.ndarray, items: np.ndarray, open_rows: np.ndarray, open_items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which ``(row, item)`` pairs are also open, and which open pairs
    are new; pairs are unique on each side."""
    keys = pair_keys(np.concatenate((rows, open_rows)), np.concatenate((items, open_items)))
    known, opened = keys[: len(items)], keys[len(items) :]
    return (
        np.isin(known, opened, assume_unique=True),
        np.isin(opened, known, assume_unique=True, invert=True),
    )


@dataclass(frozen=True)
class WindowCloseReport:
    """What the monitor observed when it closed one window.

    Attributes
    ----------
    window_index:
        The closed window ``k``.
    stabilities:
        Stability of every monitored customer at ``k`` (``nan`` when
        undefined).
    alarms:
        Customers whose stability fell to the threshold or below.
    """

    window_index: int
    stabilities: dict[int, float]
    alarms: tuple[Alarm, ...]


class StabilityMonitor:
    """Online stability scoring over a stream of timestamped baskets.

    Parameters
    ----------
    grid:
        The shared window grid (same construction as the batch model).
    beta:
        Alarm threshold: a customer alarms when ``stability <= beta``.
    significance:
        Scoring rule; defaults to the paper's exponential rule.
    counting:
        Absence-counting scheme, one of
        :data:`~repro.core.significance.COUNTING_SCHEMES`.
    first_alarm_window:
        Burn-in: windows before this index never alarm.

    Usage
    -----
    Feed baskets in non-decreasing day order via :meth:`ingest_many`
    (an iterable) or :meth:`ingest_days` (whole days as columns); each
    returns a :class:`WindowCloseReport` for every window that closed
    because time advanced past it.  Call :meth:`finish` at end of
    stream to close the remaining windows.
    """

    def __init__(
        self,
        grid: WindowGrid,
        beta: float = 0.5,
        significance: SignificanceFunction | None = None,
        counting: str = "paper",
        first_alarm_window: int = 0,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {beta}")
        if first_alarm_window < 0:
            raise ConfigError(
                f"first_alarm_window must be >= 0, got {first_alarm_window}"
            )
        if counting not in COUNTING_SCHEMES:
            raise ConfigError(
                f"unknown counting scheme {counting!r}; expected one of {COUNTING_SCHEMES}"
            )
        self.grid = grid
        self.beta = float(beta)
        self.significance = (
            significance if significance is not None else ExponentialSignificance()
        )
        self.counting = counting
        self.first_alarm_window = int(first_alarm_window)
        #: The kernel's scoring: the rule's ``(c, l)`` table over the grid.
        self._scoring = Scoring.of(self.significance, counting, None, grid.n_windows)
        self._current_window = 0
        self._last_day_seen = -1
        self._finished = False
        #: The significance state, by :data:`STATE_COLUMNS` name.  Arrays
        #: are replaced, never written in place, so a snapshot may share
        #: them.
        self._columns = _empty_columns()
        #: The open window: one item union per run of same-window days
        #: ingested since the last close (see :meth:`ingest_days`), merged
        #: into one at a close or a snapshot.
        self._open: list[ItemUnion] = []

    @classmethod
    def from_config(
        cls,
        calendar: StudyCalendar,
        config: ExperimentConfig,
        beta: float = 0.5,
        first_alarm_window: int = 0,
    ) -> StabilityMonitor:
        """Build a monitor from the shared :class:`~repro.config.ExperimentConfig`.

        Uses the config's grid (``window_months``), significance
        (``alpha``) and counting scheme, so the monitor scores exactly
        what a :class:`~repro.core.model.StabilityModel` built from the
        same config would.
        """
        return cls(
            config.grid(calendar),
            beta=beta,
            significance=config.significance(),
            counting=config.counting,
            first_alarm_window=first_alarm_window,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_window(self) -> int:
        """Index of the window currently accumulating baskets."""
        return self._current_window

    @property
    def last_day_seen(self) -> int:
        """The stream clock: the latest day ingested or advanced to
        (-1 before the first)."""
        return self._last_day_seen

    def customers(self) -> list[int]:
        """Sorted ids of customers seen so far."""
        # A sort, not np.unique: the live plane lists every shard's
        # customers on each publish, and np.unique takes several times
        # as long on a few hundred ids.
        ids = np.sort(np.concatenate(self._customer_columns()))
        first = np.ones(len(ids), bool)
        first[1:] = ids[1:] != ids[:-1]
        return ids[first].tolist()

    def _customer_columns(self) -> list[np.ndarray]:
        """The customers with a row, then those of each open-window union."""
        return [self._columns["customers"], *(union.customers for union in self._open)]

    def register(self, customer_id: int) -> None:
        """Pre-register a customer so silent ones are scored from window 0.

        Customers only seen mid-stream are tracked from their first
        basket; registering the known customer base up front makes a
        fully silent customer produce empty windows (and eventually
        alarms) instead of being invisible.
        """
        self._open.append(ItemUnion(np.array([customer_id], np.int64), _ONE_EMPTY_SLICE, _NO_INTS))

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def ingest_many(self, baskets: Iterable[Basket]) -> list[WindowCloseReport]:
        """Feed a day-ordered iterable of baskets: whole days, about
        :data:`_CHUNK_BASKETS` baskets at a time, go to one
        :meth:`ingest_days` call as columns, so there is no numpy call
        per basket and memory stays bounded by one chunk.

        Raises
        ------
        DataError
            As :meth:`ingest_days`.
        """
        reports: list[WindowCloseReport] = []
        days: list[int] = []
        day_ends: list[int] = []
        customers: list[int] = []
        sizes: list[int] = []
        items: list[int] = []

        def flush() -> None:
            reports.extend(
                self.ingest_days(
                    days,
                    day_ends,
                    np.array(customers, np.int64),
                    np.array(sizes, np.int64),
                    np.array(items, np.int64),
                )[0]
            )
            for column in (days, day_ends, customers, sizes, items):
                column.clear()

        for basket in baskets:
            if not days or basket.day != days[-1]:
                if len(customers) >= _CHUNK_BASKETS:
                    flush()
                days.append(basket.day)
                day_ends.append(0)
            customers.append(basket.customer_id)
            sizes.append(len(basket.items))
            items.extend(basket.items)
            day_ends[-1] = len(customers)
        if days:
            flush()
        return reports

    def ingest_days(
        self,
        days: Sequence[int],
        day_ends: Sequence[int],
        customers: np.ndarray,
        sizes: np.ndarray,
        items: np.ndarray,
    ) -> tuple[list[WindowCloseReport], list[ItemUnion]]:
        """Feed consecutive days of baskets, as columns; returns the
        reports of the windows this closes and the item unions it took.

        Day ``days[i]`` holds baskets ``day_ends[i - 1]:day_ends[i]``
        (from 0 for the first day); basket ``j`` is customer
        ``customers[j]`` buying the next ``sizes[j]`` of ``items``
        (see :func:`~repro.data.basket.day_columns`).  A day without
        baskets only advances the clock.  Each run of consecutive days
        in one window joins the open window as one :func:`item_union`,
        after the windows before it are closed.  Every day is checked
        before any is applied.

        Raises
        ------
        DataError
            If a day regresses, lies outside the grid, or holds baskets
            for a window already closed, or the monitor is finished.
        """
        if self._finished:
            raise DataError("monitor already finished")
        runs: list[list[int]] = []  # [window, first basket, basket end]
        current, last, start = self._current_window, self._last_day_seen, 0
        for day, end in zip(days, day_ends, strict=True):
            window = self.grid.window_of_day(day)
            who = f"customer {int(customers[start])}: " if end > start else ""
            if window is None:
                raise DataError(f"{who}day {day} is outside the monitor's grid")
            if who and window < current:
                # Out-of-order across a window boundary: the earlier
                # window has already been closed and scored, so folding
                # this basket in would silently corrupt its assignment.
                # Refuse with enough context to find the offending
                # record upstream.
                raise DataError(
                    f"{who}basket at day {day} predates the open window "
                    f"{current} (which starts at day "
                    f"{self.grid.boundaries[current]}); window {window} is "
                    f"already closed and baskets must arrive in day order"
                )
            if day < last:
                raise DataError(
                    f"{who}baskets must arrive in day order: got day {day} "
                    f"after day {last}"
                )
            if runs and runs[-1][0] == window:
                runs[-1][2] = end
            else:
                runs.append([window, start, end])
            current, last, start = max(current, window), day, end
        if not runs:
            return [], []
        self._last_day_seen = last
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        reports = []
        unions = []
        for window, lo, hi in runs:
            while self._current_window < window:
                reports.append(self._close_current_window())
            if hi > lo:
                union = item_union(customers[lo:hi], sizes[lo:hi], items[offsets[lo] : offsets[hi]])
                self._open.append(union)
                unions.append(union)
        return reports, unions

    def advance_to_day(self, day: int) -> list[WindowCloseReport]:
        """Advance the stream clock to ``day`` without ingesting a basket.

        Closes (and scores) every window that ends on or before ``day``,
        exactly as ingesting a basket dated ``day`` would, but leaves the
        open window's items untouched: an :meth:`ingest_days` of one day
        without baskets.  This is what keeps a pool of
        customer-partitioned monitors aligned: every shard sees every
        day of the stream, even days on which none of *its* customers
        shopped, so all shards close the same windows at the same time
        (see :class:`repro.serve.ShardedMonitorPool`).

        Raises
        ------
        DataError
            If ``day`` regresses, lies outside the grid, or the monitor
            is already finished.
        """
        return self.ingest_days([day], [0], _NO_INTS, _NO_INTS, _NO_INTS)[0]

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window and end the stream."""
        if self._finished:
            return []
        reports = []
        while self._current_window < self.grid.n_windows:
            reports.append(self._close_current_window())
        self._finished = True
        return reports

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def explain_alarm(self, customer_id: int, top_k: int = 5) -> list[tuple[int, float]]:
        """Most significant items missing from the customer's last closed
        window, as ``(item, significance)`` pairs.

        The monitor keeps one window of evidence, so this explains the most
        recent :class:`WindowCloseReport` (where the alarm fired).

        Raises
        ------
        DataError
            If the customer has never appeared in the stream.
        """
        if all(_row_of(ids, customer_id) is None for ids in self._customer_columns()):
            raise DataError(f"customer {customer_id} not in the stream")
        columns = self._columns
        row = _row_of(columns["missing_customers"], customer_id)
        if row is None:
            return []
        lo, hi = columns["missing_offsets"][row : row + 2].tolist()
        ranked = sorted(
            zip(
                columns["missing_items"][lo:hi].tolist(),
                columns["missing_significance"][lo:hi].tolist(),
                strict=True,
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:top_k]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open_union(self) -> ItemUnion:
        """The open window's unions merged into one, which then stands
        for them."""
        union = merge_unions(self._open)
        self._open = [union] if len(union.customers) else []
        return union

    def _open_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The open window as ``(row, item)`` pairs sorted by row, then
        item, after giving each customer first seen in it a row."""
        union = self._open_union()
        rows = customer_rows(self._columns, union.customers)
        return np.repeat(rows, np.diff(union.item_offsets)), union.items

    def _state_columns(self) -> dict[str, np.ndarray]:
        """Every state column plus the open window as ``current_offsets``
        / ``current_items`` (each customer's items ascending), as
        read-only views: the columns a snapshot stores."""
        rows, items = self._open_pairs()
        columns = {
            **self._columns,
            "current_offsets": row_offsets(rows, len(self._columns["customers"])),
            "current_items": items,
        }
        views = {}
        for name, column in columns.items():
            views[name] = column.view()
            views[name].flags.writeable = False
        return views

    def _significance(self, item_rows: np.ndarray) -> np.ndarray:
        """``S(p, k)`` of every ``items`` row for the window being closed.

        Each customer counts windows since their own registration, so the
        prior-window count ``k`` is per customer, per item.
        """
        columns = self._columns
        presence = columns["presence"]
        absent = columns["n_windows_observed"][item_rows] - presence
        if self._scoring.since_first_seen:
            absent = absent - columns["first_seen"]
        return self._scoring.table[presence, absent]

    def _close_current_window(self) -> WindowCloseReport:
        """Score every customer on the window being closed, then fold its
        item sets into the columns.

        Stability is kept over total significance mass, both summed per
        customer in first-seen order with
        :func:`~repro.core.batch._segment_sum`.  Each alarm joins the
        alarm log, customers ascending.  Items the customer missed
        with positive significance become the alarm evidence; items first
        seen in this window are appended to the customer's row in
        ascending order, with presence 1.
        """
        window_index = self._current_window
        open_rows, open_items = self._open_pairs()
        columns = self._columns
        customers = columns["customers"]
        offsets = columns["item_offsets"]
        items = columns["items"]
        n_windows = columns["n_windows_observed"]
        n_customers = len(customers)
        item_rows = np.repeat(np.arange(n_customers), np.diff(offsets))
        kept, fresh = _match_pairs(item_rows, items, open_rows, open_items)

        significance = self._significance(item_rows)
        total = _segment_sum(significance, offsets)
        kept_mass = _segment_sum(significance * kept, offsets)
        stability = np.full(n_customers, np.nan)
        np.divide(kept_mass, total, out=stability, where=total > 0)
        ids = customers.tolist()
        stabilities = stability.tolist()
        alarm_rows = np.flatnonzero(stability <= self.beta)
        if window_index < self.first_alarm_window:
            alarm_rows = alarm_rows[:0]
        alarms = tuple(
            Alarm(
                customer_id=ids[row],
                window_index=window_index,
                stability=stabilities[row],
            )
            for row in alarm_rows.tolist()
        )
        if alarm_rows.size:
            raised = {
                "alarm_customers": customers[alarm_rows],
                "alarm_windows": np.full(alarm_rows.size, window_index, np.int64),
                "alarm_stability": stability[alarm_rows],
            }
            columns.update(
                {name: np.concatenate((columns[name], rows)) for name, rows in raised.items()}
            )

        # Observe the window: kept items count once more, new items go
        # to the end of their customer's row.
        missing = ~kept & (significance > 0.0)
        fresh_rows, fresh_items = open_rows[fresh], open_items[fresh]
        shift = row_offsets(fresh_rows, n_customers)
        size = len(items) + len(fresh_items)
        old_at = np.arange(len(items)) + shift[item_rows]
        fresh_at = offsets[fresh_rows + 1] + np.arange(len(fresh_items))

        def placed(old: np.ndarray, new: np.ndarray | int) -> np.ndarray:
            out = np.empty(size, np.int64)
            out[old_at] = old
            out[fresh_at] = new
            return out

        columns.update(
            n_windows_observed=n_windows + 1,
            last_stability=stability,
            item_offsets=offsets + shift,
            items=placed(items, fresh_items),
            presence=placed(columns["presence"] + kept, 1),
            first_seen=placed(columns["first_seen"], n_windows[fresh_rows]),
            missing_customers=customers,
            missing_offsets=row_offsets(item_rows[missing], n_customers),
            missing_items=items[missing],
            missing_significance=significance[missing],
        )
        self._open = []
        self._current_window += 1
        return WindowCloseReport(
            window_index=window_index,
            stabilities=dict(zip(ids, stabilities, strict=True)),
            alarms=alarms,
        )


def monitor_scores(
    monitors: Iterable[StabilityMonitor],
) -> tuple[
    dict[int, float],
    dict[int, bool],
    dict[int, tuple[tuple[int, float], ...]],
]:
    """``(scores, flags, alarm_windows)`` of monitors owning disjoint
    customers, keyed by every scored customer in ascending id order.

    A customer is scored once a window closed on their row
    (``n_windows_observed > 0``), and their score is ``last_stability``
    (``nan`` while undefined).  They are flagged when the alarm log
    holds a row of theirs; ``alarm_windows`` lists those rows as
    ``(window, stability)`` pairs in window order.
    """
    states = [monitor._columns for monitor in monitors]
    scored = [state["n_windows_observed"] > 0 for state in states]
    ids = np.concatenate(
        [state["customers"][rows] for state, rows in zip(states, scored, strict=True)]
    )
    stability = np.concatenate(
        [state["last_stability"][rows] for state, rows in zip(states, scored, strict=True)]
    )
    order = np.argsort(ids, kind="stable")
    customers = ids[order].tolist()
    log = {
        name: np.concatenate([state[name] for state in states])
        for name in ("alarm_customers", "alarm_windows", "alarm_stability")
    }
    # Each log is in window order, so a stable sort by customer keeps
    # every customer's alarms in window order.
    by_customer = np.argsort(log["alarm_customers"], kind="stable")
    alarms: dict[int, list[tuple[int, float]]] = {}
    for customer_id, window, value in zip(
        *(log[name][by_customer].tolist() for name in log), strict=True
    ):
        alarms.setdefault(customer_id, []).append((window, value))
    return (
        dict(zip(customers, stability[order].tolist(), strict=True)),
        {customer_id: customer_id in alarms for customer_id in customers},
        {customer_id: tuple(alarms.get(customer_id, ())) for customer_id in customers},
    )
