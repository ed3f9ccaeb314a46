"""Online (streaming) stability monitoring.

The batch :class:`~repro.core.model.StabilityModel` recomputes trajectories
from a full log; a deployed system instead sees receipts arrive one by one
and must re-score customers at every window close.  This module provides
that deployment shape:

* :class:`CustomerState` — the per-customer incremental state: the
  significance tracker plus the current window's accumulating item set;
* :class:`StabilityMonitor` — ingests baskets in timestamp order, closes
  windows as the clock advances, emits :class:`~repro.core.detector.Alarm`
  objects for customers whose stability fell to the threshold, and keeps
  the evidence needed to explain each alarm.

Memory is O(customers x items-ever-bought), independent of history length —
the property that makes the 6M-customer deployment of the paper's retailer
feasible.

Equivalence with the batch model is pinned by tests: feeding a log through
the monitor produces exactly the same stability values as
``StabilityModel.fit`` on that log.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import _segment_sum, significance_from_counts
from repro.core.detector import Alarm
from repro.core.significance import ExponentialSignificance, SignificanceFunction, SignificanceTracker
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.errors import ConfigError, DataError

if TYPE_CHECKING:
    from repro.config import ExperimentConfig
    from repro.data.calendar import StudyCalendar

__all__ = ["CustomerState", "WindowCloseReport", "StabilityMonitor"]


@dataclass
class CustomerState:
    """Incremental per-customer state held by the monitor."""

    customer_id: int
    tracker: SignificanceTracker
    current_items: set[int] = field(default_factory=set)
    last_stability: float = math.nan

    def significance_snapshot(self) -> dict[int, float]:
        """``S(p, k)`` for the window currently being accumulated."""
        return self.tracker.significance_snapshot()


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
        Absence-counting scheme (see
        :class:`~repro.core.significance.SignificanceTracker`).
    first_alarm_window:
        Burn-in: windows before this index never alarm.

    Usage
    -----
    Feed baskets in non-decreasing day order via :meth:`ingest`; it
    returns a :class:`WindowCloseReport` for every window that closed
    because time advanced past it.  Call :meth:`finish` at end of stream
    to close the remaining windows.
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
        self.grid = grid
        self.beta = float(beta)
        self.significance = (
            significance if significance is not None else ExponentialSignificance()
        )
        self.counting = counting
        self.first_alarm_window = int(first_alarm_window)
        self._states: dict[int, CustomerState] = {}
        self._current_window = 0
        self._last_day_seen = -1
        self._finished = False
        # Evidence from the most recently closed window, per customer:
        # {item: significance} of items that were missing in it.
        self._last_missing: dict[int, dict[int, float]] = {}

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
        return sorted(self._states)

    def state_of(self, customer_id: int) -> CustomerState:
        """The incremental state of one customer.

        Raises
        ------
        DataError
            If the customer has never appeared in the stream.
        """
        try:
            return self._states[customer_id]
        except KeyError:
            raise DataError(f"customer {customer_id} not in the stream") from None

    def register(self, customer_id: int) -> None:
        """Pre-register a customer so silent ones are scored from window 0.

        Customers only seen mid-stream are tracked from their first
        basket; registering the known customer base up front makes a
        fully silent customer produce empty windows (and eventually
        alarms) instead of being invisible.
        """
        if customer_id not in self._states:
            self._states[customer_id] = CustomerState(
                customer_id=customer_id,
                tracker=SignificanceTracker(self.significance, counting=self.counting),
            )

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def ingest(self, basket: Basket) -> list[WindowCloseReport]:
        """Feed one basket; returns reports for any windows this closes.

        Raises
        ------
        DataError
            If baskets arrive out of order, past the grid, or after
            :meth:`finish`.
        """
        if self._finished:
            raise DataError("monitor already finished")
        window = self.grid.window_of_day(basket.day)
        if window is None:
            raise DataError(
                f"basket day {basket.day} is outside the monitor's grid"
            )
        if window < self._current_window:
            # Out-of-order across a window boundary: the earlier window
            # has already been closed and scored, so folding this basket
            # in would silently corrupt its assignment.  Refuse with
            # enough context to find the offending record upstream.
            raise DataError(
                f"customer {basket.customer_id}: basket at day {basket.day} "
                f"predates the open window {self._current_window} (which "
                f"starts at day {self.grid.boundaries[self._current_window]}); "
                f"window {window} is already closed and baskets must arrive "
                f"in day order"
            )
        if basket.day < self._last_day_seen:
            raise DataError(
                f"customer {basket.customer_id}: baskets must arrive in day "
                f"order: got day {basket.day} after day {self._last_day_seen}"
            )
        self._last_day_seen = basket.day

        reports = []
        while self._current_window < window:
            reports.append(self._close_current_window())
        self.register(basket.customer_id)
        self._states[basket.customer_id].current_items |= basket.items
        return reports

    def ingest_many(self, baskets: Iterable[Basket]) -> list[WindowCloseReport]:
        """Feed a day-ordered iterable of baskets."""
        reports: list[WindowCloseReport] = []
        for basket in baskets:
            reports.extend(self.ingest(basket))
        return reports

    def advance_to_day(self, day: int) -> list[WindowCloseReport]:
        """Advance the stream clock to ``day`` without ingesting a basket.

        Closes (and scores) every window that ends on or before ``day``,
        exactly as ingesting a basket dated ``day`` would, but leaves all
        per-customer item sets untouched.  This is what keeps a pool of
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
        if self._finished:
            raise DataError("monitor already finished")
        window = self.grid.window_of_day(day)
        if window is None:
            raise DataError(f"day {day} is outside the monitor's grid")
        if day < self._last_day_seen:
            raise DataError(
                f"the stream clock must advance in day order: got day "
                f"{day} after day {self._last_day_seen}"
            )
        self._last_day_seen = day
        reports = []
        while self._current_window < window:
            reports.append(self._close_current_window())
        return reports

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
        """
        self.state_of(customer_id)  # validate the id
        ranked = sorted(
            self._last_missing.get(customer_id, {}).items(),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:top_k]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _close_current_window(self) -> WindowCloseReport:
        if (
            isinstance(self.significance, ExponentialSignificance)
            and self.counting == "paper"
        ):
            return self._close_batched()
        return self._close_python()

    def _close_python(self) -> WindowCloseReport:
        """Flexible close path: one significance snapshot per customer."""
        window_index = self._current_window
        stabilities: dict[int, float] = {}
        alarms: list[Alarm] = []
        for customer_id in sorted(self._states):
            state = self._states[customer_id]
            snapshot = state.tracker.significance_snapshot()
            total = sum(snapshot.values())
            kept = sum(snapshot.get(item, 0.0) for item in state.current_items)
            stability = kept / total if total > 0 else math.nan
            self._record_close(
                state, window_index, stability, stabilities, alarms,
                missing={
                    item: sig
                    for item, sig in snapshot.items()
                    if item not in state.current_items and sig > 0.0
                },
            )
        self._current_window += 1
        return WindowCloseReport(
            window_index=window_index,
            stabilities=stabilities,
            alarms=tuple(alarms),
        )

    def _close_batched(self) -> WindowCloseReport:
        """Default-config close path reusing the batch significance kernel.

        All customers' per-item presence counts are flattened into one
        array and scored with a single vectorised
        :func:`~repro.core.batch.significance_from_counts` call plus
        segment sums — instead of one ``math.exp`` per (customer, item).
        The flattening preserves each tracker's dict order, so the sums
        (and therefore the stabilities) are bit-identical to
        :meth:`_close_python`.
        """
        window_index = self._current_window
        customer_ids = sorted(self._states)
        flat_items: list[int] = []
        flat_counts: list[int] = []
        flat_kept: list[bool] = []
        n_observed: list[int] = []
        offsets = [0]
        for customer_id in customer_ids:
            state = self._states[customer_id]
            current = state.current_items
            for item, count in state.tracker.presence_counts().items():
                flat_items.append(item)
                flat_counts.append(count)
                flat_kept.append(item in current)
            n_observed.append(state.tracker.n_windows_observed)
            offsets.append(len(flat_counts))
        offsets_arr = np.asarray(offsets, dtype=np.int64)
        counts = np.asarray(flat_counts, dtype=np.float64)
        kept_mask = np.asarray(flat_kept, dtype=np.float64)
        # Each tracker counts windows since its own registration, so the
        # prior-window count k is per customer, broadcast over its items.
        k_per_item = np.repeat(
            np.asarray(n_observed, dtype=np.float64), np.diff(offsets_arr)
        )
        significance = significance_from_counts(
            counts, k_per_item, self.significance.alpha
        )
        total = _segment_sum(significance, offsets_arr)
        kept = _segment_sum(significance * kept_mask, offsets_arr)

        stabilities: dict[int, float] = {}
        alarms: list[Alarm] = []
        for i, customer_id in enumerate(customer_ids):
            state = self._states[customer_id]
            stability = kept[i] / total[i] if total[i] > 0 else math.nan
            lo, hi = offsets[i], offsets[i + 1]
            self._record_close(
                state, window_index, stability, stabilities, alarms,
                missing={
                    item: float(sig)
                    for item, sig, was_kept in zip(
                        flat_items[lo:hi],
                        significance[lo:hi],
                        flat_kept[lo:hi],
                        strict=True,
                    )
                    if not was_kept and sig > 0.0
                },
            )
        self._current_window += 1
        return WindowCloseReport(
            window_index=window_index,
            stabilities=stabilities,
            alarms=tuple(alarms),
        )

    def _record_close(
        self,
        state: CustomerState,
        window_index: int,
        stability: float,
        stabilities: dict[int, float],
        alarms: list[Alarm],
        missing: dict[int, float],
    ) -> None:
        """Shared bookkeeping for one customer at window close."""
        stability = float(stability)
        stabilities[state.customer_id] = stability
        state.last_stability = stability
        self._last_missing[state.customer_id] = missing
        if (
            window_index >= self.first_alarm_window
            and not math.isnan(stability)
            and stability <= self.beta
        ):
            alarms.append(
                Alarm(
                    customer_id=state.customer_id,
                    window_index=window_index,
                    stability=stability,
                )
            )
        state.tracker.observe_window(state.current_items)
        state.current_items = set()
