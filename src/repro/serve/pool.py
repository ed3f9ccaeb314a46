"""Customer-sharded monitor pool with bit-identical serial fallback.

A serving deployment cannot hold 6M customers' incremental state behind
one GIL: :class:`ShardedMonitorPool` partitions customers across
``n_shards`` independent :class:`~repro.core.streaming.StabilityMonitor`
instances (``customer_id % n_shards``, so all of a customer's baskets
land in one shard) and processes each checkpoint batch per shard —
serially in-process, or fanned out to worker processes through
:func:`~repro.runtime.executor.run_sharded` with its full
retry/degrade protocol.

The pool preserves the serving layer's headline invariant — sharded
scoring is **bit-identical** to a single monitor over the same stream —
through three properties:

* every shard's clock advances through *every* day of the stream
  (:meth:`StabilityMonitor.advance_to_day`), so all shards close the
  same windows at the same stream positions even on days none of their
  customers shopped;
* a customer's state is content-determined (new items join their row
  in sorted order), so the basket interleaving *across* customers never
  affects any one customer's scores;
* the parallel path ships each shard's state to its worker and back
  as one checksummed snapshot container (:mod:`repro.runtime.snapshot`),
  whose round-trip guarantee pins that a restored monitor emits
  identical reports — the same slab-reference pattern the batch engine
  uses, so a retried or degraded worker attempt recomputes from the
  exact same state (``fn`` stays pure/idempotent as ``run_sharded``
  requires).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.detector import Alarm
from repro.core.streaming import StabilityMonitor, WindowCloseReport, pair_keys
from repro.data.basket import Basket, DayBatch
from repro.errors import ConfigError
from repro.runtime.executor import ExecutionReport, run_sharded
from repro.runtime.snapshot import (
    decode_snapshot,
    encode_snapshot,
    restore_monitor,
    snapshot_monitor,
)

if TYPE_CHECKING:
    from repro.core.significance import SignificanceFunction
    from repro.core.windowing import WindowGrid
    from repro.runtime.faults import FaultPlan

__all__ = ["ShardedMonitorPool", "shard_of", "merge_reports"]

#: Wire shapes shipped to worker processes: plain nested tuples and
#: encoded snapshots only, so pickling never depends on dataclass/slots
#: details across versions.
_WireBasket = tuple[int, tuple[int, ...], float]
_WireDay = tuple[int, tuple[_WireBasket, ...]]
_WireReport = tuple[
    int,
    tuple[tuple[int, float], ...],
    tuple[tuple[int, int, float], ...],
]
_ShardTask = tuple[bytes, tuple[_WireDay, ...]]


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


def _serialize_report(report: WindowCloseReport) -> _WireReport:
    return (
        report.window_index,
        tuple(report.stabilities.items()),
        tuple(
            (a.customer_id, a.window_index, a.stability) for a in report.alarms
        ),
    )


def _deserialize_report(wire: _WireReport) -> WindowCloseReport:
    window_index, stabilities, alarms = wire
    return WindowCloseReport(
        window_index=window_index,
        stabilities=dict(stabilities),
        alarms=tuple(
            Alarm(customer_id=cid, window_index=w, stability=s)
            for cid, w, s in alarms
        ),
    )


def _process_shard_batch(task: _ShardTask) -> tuple[bytes, tuple[_WireReport, ...]]:
    """Worker: restore one shard, play one batch of days, snapshot back.

    Pure in the :func:`run_sharded` sense — state in, state out, no side
    effects — so a timed-out attempt recomputed elsewhere cannot corrupt
    anything.
    """
    blob, days = task
    monitor = restore_monitor(decode_snapshot(blob))
    reports: list[WindowCloseReport] = []
    for day, baskets in days:
        for customer_id, items, monetary in baskets:
            reports.extend(
                monitor.ingest(
                    Basket.of(
                        customer_id=customer_id,
                        day=day,
                        items=list(items),
                        monetary=monetary,
                    )
                )
            )
        reports.extend(monitor.advance_to_day(day))
    return (
        encode_snapshot(snapshot_monitor(monitor)),
        tuple(_serialize_report(r) for r in reports),
    )


class ShardedMonitorPool:
    """``n_shards`` customer-partitioned monitors behind one batch API.

    Parameters
    ----------
    monitors:
        One :class:`StabilityMonitor` per shard, identically configured
        and clock-aligned (shard ``i`` owns customers with
        ``customer_id % n_shards == i``).
    parallel:
        Process each batch's shards in worker processes via
        :func:`run_sharded` (retry waves, serial degrade) instead of
        in-process.  Results are bit-identical either way; parallelism
        is purely a throughput lever.
    retries, timeout, fault_plan:
        Passed through to :func:`run_sharded` in parallel mode.
    """

    def __init__(
        self,
        monitors: Sequence[StabilityMonitor],
        *,
        parallel: bool = False,
        retries: int = 2,
        timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not monitors:
            raise ConfigError("a monitor pool needs at least one shard")
        self.monitors = list(monitors)
        self.parallel = bool(parallel)
        self.retries = int(retries)
        self.timeout = timeout
        self.fault_plan = fault_plan
        #: Executor report of the most recent parallel batch (None until
        #: one ran); surfaces retry/degrade history for the manifest.
        self.last_report: ExecutionReport | None = None
        #: The day batches of the most recent :meth:`process_batch`
        #: (see :meth:`journal_shards`).
        self._last_batches: tuple[DayBatch, ...] = ()

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
        parallel: bool = False,
        retries: int = 2,
        timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
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
        return cls(
            monitors,
            parallel=parallel,
            retries=retries,
            timeout=timeout,
            fault_plan=fault_plan,
        )

    @classmethod
    def from_snapshots(
        cls,
        payloads: Sequence[dict],
        *,
        parallel: bool = False,
        retries: int = 2,
        timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> ShardedMonitorPool:
        """Restore a pool from per-shard snapshot payloads (a checkpoint).

        Raises
        ------
        SnapshotError
            If any payload is corrupt or from an incompatible version.
        """
        return cls(
            [restore_monitor(payload) for payload in payloads],
            parallel=parallel,
            retries=retries,
            timeout=timeout,
            fault_plan=fault_plan,
        )

    def set_fault_plan(self, fault_plan: FaultPlan | None) -> None:
        """Swap the injected fault plan for subsequent batches.

        The plan is read at each :meth:`process_batch` call, so the
        chaos harness can schedule a fault for exactly one batch by
        installing a plan before it and restoring the base plan after
        (the serving loop's ``on_batch_start`` hook does exactly this).
        """
        self.fault_plan = fault_plan

    def snapshot_shards(self) -> list[dict]:
        """One versioned snapshot payload per shard, in shard order."""
        return [snapshot_monitor(monitor) for monitor in self.monitors]

    def journal_shards(self) -> list[dict]:
        """What the most recent :meth:`process_batch` added, per shard:
        the shard clock ``last_day_seen`` and the batch's item unions as
        int64 arrays — ``customers`` ascending, and ``items`` ascending
        within each customer, customer ``i`` owning
        ``items[item_offsets[i]:item_offsets[i + 1]]`` (an empty slice
        when all their baskets were empty).

        When that batch closed no window, this is the whole difference
        between the shard states before and after it (a checkpoint
        journal; see :mod:`repro.serve.checkpoint`).
        """
        ids: list[int] = []
        sizes: list[int] = []
        items: list[int] = []
        for batch in self._last_batches:
            for basket in batch.baskets:
                ids.append(basket.customer_id)
                sizes.append(len(basket.items))
                items.extend(basket.items)
        customers, basket_rows = np.unique(
            np.asarray(ids, dtype=np.int64), return_inverse=True
        )
        rows = np.repeat(basket_rows, sizes)
        items_array = np.asarray(items, dtype=np.int64)
        # One sorted key per (customer, item) pair: the first of each
        # key is the union, by customer, then item.
        _, first = np.unique(pair_keys(rows, items_array), return_index=True)
        rows, items_array = rows[first], items_array[first]
        counts = np.bincount(rows, minlength=len(customers))
        customer_shards = customers % self.n_shards  # shard_of, per customer
        item_shards = customer_shards[rows]
        entries = []
        for shard, monitor in enumerate(self.monitors):
            owned = customer_shards == shard
            entries.append(
                {
                    "last_day_seen": monitor.last_day_seen,
                    "customers": customers[owned],
                    "item_offsets": np.concatenate(
                        ([0], np.cumsum(counts[owned], dtype=np.int64))
                    ),
                    "items": items_array[item_shards == shard],
                }
            )
        return entries

    def customers(self) -> list[int]:
        """Sorted ids of customers seen so far, across all shards."""
        seen: set[int] = set()
        for monitor in self.monitors:
            seen.update(monitor.customers())
        return sorted(seen)

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def process_batch(
        self, batches: Sequence[DayBatch]
    ) -> list[WindowCloseReport]:
        """Play a group of day batches through every shard; merged reports.

        The group is kept for :meth:`journal_shards`.

        Raises
        ------
        DataError
            If the batches regress the stream clock or leave the grid
            (from the underlying monitors).
        """
        self._last_batches = tuple(batches)
        if not batches:
            return []
        if self.parallel and self.n_shards > 1:
            return self._process_parallel(batches)
        return self._process_serial(batches)

    def _process_serial(
        self, batches: Sequence[DayBatch]
    ) -> list[WindowCloseReport]:
        per_shard: list[list[WindowCloseReport]] = [
            [] for _ in self.monitors
        ]
        for batch in batches:
            split: list[list[Basket]] = [[] for _ in self.monitors]
            for basket in batch.baskets:
                split[shard_of(basket.customer_id, self.n_shards)].append(
                    basket
                )
            for shard, monitor in enumerate(self.monitors):
                for basket in split[shard]:
                    per_shard[shard].extend(monitor.ingest(basket))
                per_shard[shard].extend(monitor.advance_to_day(batch.day))
        return merge_reports(per_shard)

    def _process_parallel(
        self, batches: Sequence[DayBatch]
    ) -> list[WindowCloseReport]:
        tasks: list[_ShardTask] = []
        for shard, monitor in enumerate(self.monitors):
            days: tuple[_WireDay, ...] = tuple(
                (
                    batch.day,
                    tuple(
                        (
                            basket.customer_id,
                            tuple(sorted(basket.items)),
                            basket.monetary,
                        )
                        for basket in batch.baskets
                        if shard_of(basket.customer_id, self.n_shards)
                        == shard
                    ),
                )
                for batch in batches
            )
            tasks.append((encode_snapshot(snapshot_monitor(monitor)), days))
        results, report = run_sharded(
            _process_shard_batch,
            tasks,
            max_workers=self.n_shards,
            retries=self.retries,
            timeout=self.timeout,
            fault_plan=self.fault_plan,
        )
        self.last_report = report
        per_shard: list[list[WindowCloseReport]] = []
        for shard, (blob, serialized) in enumerate(results):
            self.monitors[shard] = restore_monitor(decode_snapshot(blob))
            per_shard.append([_deserialize_report(r) for r in serialized])
        return merge_reports(per_shard)

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window on every shard; merged reports.

        Always runs in the parent process — end-of-stream work is one
        pass over already-resident state, not worth a pool round trip.
        """
        return merge_reports([monitor.finish() for monitor in self.monitors])
