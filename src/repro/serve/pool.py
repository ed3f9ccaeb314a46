"""Customer-sharded monitor pool, bit-identical to one monitor.

:class:`ShardedMonitorPool` partitions customers across ``n_shards``
independent :class:`~repro.core.streaming.StabilityMonitor` instances
(``customer_id % n_shards``, so all of a customer's baskets land in one
shard).  The paper scores each customer from that customer's own
baskets alone, so the shards are a partition of independent customers:
the pool routes each checkpoint batch's columns to the shards in numpy
and feeds each shard its slice in one
:meth:`~repro.core.streaming.StabilityMonitor.ingest_days` call, in
process.  The item unions the monitors take are the batch's checkpoint
journal (:meth:`ShardedMonitorPool.journal_shards`).

The pool preserves the serving layer's headline invariant — sharded
scoring is **bit-identical** to a single monitor over the same stream —
through two properties:

* every shard's clock advances through *every* day of the stream
  (:meth:`StabilityMonitor.advance_to_day`), so all shards close the
  same windows at the same stream positions even on days none of their
  customers shopped;
* a customer's state is content-determined (new items join their row
  in sorted order), so the basket interleaving *across* customers never
  affects any one customer's scores.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.detector import Alarm
from repro.core.streaming import ItemUnion, StabilityMonitor, WindowCloseReport, merge_unions
from repro.data.basket import DayBatch, day_columns
from repro.errors import ConfigError
# Unused here: perfbench/tracing.py wraps this name to time the
# executor layer, so it stays bound until the benchmark stops patching it.
from repro.runtime.executor import run_sharded  # noqa: F401
from repro.runtime.snapshot import restore_monitor, snapshot_monitor

if TYPE_CHECKING:
    from repro.core.significance import SignificanceFunction
    from repro.core.windowing import WindowGrid

__all__ = ["ShardedMonitorPool", "shard_of", "merge_reports"]

#: One shard's slice of a batch, as :meth:`StabilityMonitor.ingest_days`
#: takes it: the days, each day's end in the shard's baskets, and the
#: baskets' ``customers``, ``sizes`` and ``items`` columns.
_ShardColumns = tuple[list[int], list[int], np.ndarray, np.ndarray, np.ndarray]


def shard_of(customer_id: int, n_shards: int) -> int:
    """The shard owning a customer (stable hash: ``id % n_shards``)."""
    return customer_id % n_shards


def merge_reports(
    per_shard: Sequence[Sequence[WindowCloseReport]],
) -> list[WindowCloseReport]:
    """Merge per-shard window-close reports into the single-monitor view.

    Shards close the same windows (the pool keeps their clocks aligned)
    and own disjoint customers, so the merge is a union: stabilities
    keyed in ascending customer order and alarms sorted by customer id —
    exactly the order a single monitor (which iterates its customers
    sorted) would have produced.
    """
    by_window: dict[int, list[WindowCloseReport]] = {}
    for shard_reports in per_shard:
        for report in shard_reports:
            by_window.setdefault(report.window_index, []).append(report)
    merged = []
    for window_index in sorted(by_window):
        stabilities: dict[int, float] = {}
        alarms: list[Alarm] = []
        for report in by_window[window_index]:
            stabilities.update(report.stabilities)
            alarms.extend(report.alarms)
        merged.append(
            WindowCloseReport(
                window_index=window_index,
                stabilities=dict(sorted(stabilities.items())),
                alarms=tuple(sorted(alarms, key=lambda a: a.customer_id)),
            )
        )
    return merged


def _shard_columns(batches: Sequence[DayBatch], n_shards: int) -> list[_ShardColumns]:
    """Each shard's slice of a group of day batches: every day, and the
    baskets of the customers it owns (``customer_id % n_shards``)."""
    days, day_ends, customers, sizes, items = day_columns(batches)
    if n_shards == 1:
        return [(days, day_ends, customers, sizes, items)]
    owners = customers % n_shards  # shard_of, per basket
    day_of_basket = np.repeat(np.arange(len(days)), np.diff(day_ends, prepend=0))
    shards = []
    for shard in range(n_shards):
        owned = owners == shard
        shards.append(
            (
                days,
                np.cumsum(np.bincount(day_of_basket[owned], minlength=len(days))).tolist(),
                customers[owned],
                sizes[owned],
                items[np.repeat(owned, sizes)],
            )
        )
    return shards


class ShardedMonitorPool:
    """``n_shards`` customer-partitioned monitors behind one batch API.

    Parameters
    ----------
    monitors:
        One :class:`StabilityMonitor` per shard, identically configured
        and clock-aligned (shard ``i`` owns customers with
        ``customer_id % n_shards == i``).
    """

    def __init__(self, monitors: Sequence[StabilityMonitor]) -> None:
        if not monitors:
            raise ConfigError("a monitor pool needs at least one shard")
        self.monitors = list(monitors)
        #: Per shard, the item unions the most recent
        #: :meth:`process_batch` took (see :meth:`journal_shards`).
        self._unions: list[list[ItemUnion]] = [[] for _ in self.monitors]

    @property
    def n_shards(self) -> int:
        return len(self.monitors)

    @classmethod
    def create(
        cls,
        grid: WindowGrid,
        *,
        n_shards: int = 1,
        beta: float = 0.5,
        significance: SignificanceFunction | None = None,
        counting: str = "paper",
        first_alarm_window: int = 0,
    ) -> ShardedMonitorPool:
        """Build a fresh pool of identically configured shard monitors."""
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        monitors = [
            StabilityMonitor(
                grid,
                beta=beta,
                significance=significance,
                counting=counting,
                first_alarm_window=first_alarm_window,
            )
            for _ in range(n_shards)
        ]
        return cls(monitors)

    @classmethod
    def from_snapshots(
        cls,
        payloads: Sequence[dict],
        journals: Sequence[Sequence[ItemUnion]] | None = None,
    ) -> ShardedMonitorPool:
        """Restore a pool from per-shard snapshot payloads (a checkpoint),
        each shard with its ``journals``: the open-window item unions
        taken since its snapshot, in order (see
        :func:`~repro.runtime.snapshot.restore_monitor`).

        Raises
        ------
        SnapshotError
            If any payload is corrupt or from an incompatible version.
        """
        if journals is None:
            journals = [()] * len(payloads)
        return cls(
            [
                restore_monitor(payload, unions)
                for payload, unions in zip(payloads, journals, strict=True)
            ]
        )

    def snapshot_shards(self) -> list[dict]:
        """One versioned snapshot payload per shard, in shard order."""
        return [snapshot_monitor(monitor) for monitor in self.monitors]

    def journal_shards(self) -> list[dict]:
        """What the most recent :meth:`process_batch` added, per shard:
        the shard clock ``last_day_seen`` and the item unions its
        monitor took from the batch, as int64 arrays — ``customers``
        ascending, and ``items`` ascending within each customer,
        customer ``i`` owning ``items[item_offsets[i]:item_offsets[i + 1]]``
        (an empty slice when all their baskets were empty).

        When that batch closed no window, this is the whole difference
        between the shard states before and after it (a checkpoint
        journal; see :mod:`repro.serve.checkpoint`).
        """
        entries = []
        for monitor, unions in zip(self.monitors, self._unions, strict=True):
            union = merge_unions(unions)
            entries.append(
                {
                    "last_day_seen": monitor.last_day_seen,
                    "customers": union.customers,
                    "item_offsets": union.item_offsets,
                    "items": union.items,
                }
            )
        return entries

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def process_batch(
        self, batches: Sequence[DayBatch]
    ) -> list[WindowCloseReport]:
        """Play a group of day batches through every shard; merged reports.

        Each shard's monitor ingests its slice of the group in one
        :meth:`~repro.core.streaming.StabilityMonitor.ingest_days` call,
        and the item unions it took are kept for :meth:`journal_shards`.

        Raises
        ------
        DataError
            If the batches regress the stream clock or leave the grid
            (from the underlying monitors).
        """
        self._unions = [[] for _ in self.monitors]
        if not batches:
            return []
        shards = _shard_columns(batches, self.n_shards)
        per_shard = []
        for shard, (monitor, columns) in enumerate(zip(self.monitors, shards, strict=True)):
            reports, self._unions[shard] = monitor.ingest_days(*columns)
            per_shard.append(reports)
        return merge_reports(per_shard)

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window on every shard; merged reports."""
        return merge_reports([monitor.finish() for monitor in self.monitors])
