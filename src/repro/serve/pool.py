"""Customer-sharded monitor pool with bit-identical serial fallback.

A serving deployment cannot hold 6M customers' incremental state behind
one GIL: :class:`ShardedMonitorPool` partitions customers across
``n_shards`` independent :class:`~repro.core.streaming.StabilityMonitor`
instances (``customer_id % n_shards``, so all of a customer's baskets
land in one shard).  It routes each checkpoint batch's columns to the
shards in numpy and feeds each shard its slice in one
:meth:`~repro.core.streaming.StabilityMonitor.ingest_days` call —
serially in-process, or fanned out to worker processes through
:func:`~repro.runtime.executor.run_sharded` with its full
retry/degrade protocol.  The item unions the monitors take are the
batch's checkpoint journal (:meth:`ShardedMonitorPool.journal_shards`).

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
from repro.core.streaming import ItemUnion, StabilityMonitor, WindowCloseReport, merge_unions
from repro.data.basket import DayBatch, day_columns
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

#: One shard's slice of a batch, as :meth:`StabilityMonitor.ingest_days`
#: takes it: the days, each day's end in the shard's baskets, and the
#: baskets' ``customers``, ``sizes`` and ``items`` columns.
_ShardColumns = tuple[list[int], list[int], np.ndarray, np.ndarray, np.ndarray]
#: Wire shapes shipped to and from worker processes: plain tuples,
#: int64 arrays and encoded snapshots only, so pickling never depends
#: on dataclass details across versions.
_WireReport = tuple[
    int,
    tuple[tuple[int, float], ...],
    tuple[tuple[int, int, float], ...],
]
_WireUnion = tuple[np.ndarray, np.ndarray, np.ndarray]
_ShardTask = tuple[bytes, _ShardColumns]


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


def _process_shard_batch(
    task: _ShardTask,
) -> tuple[bytes, tuple[_WireReport, ...], _WireUnion]:
    """Worker: restore one shard, play its slice of one batch, snapshot
    back; the reports and the item union the slice added go with it.

    Pure in the :func:`run_sharded` sense — state in, state out, no side
    effects — so a timed-out attempt recomputed elsewhere cannot corrupt
    anything.
    """
    blob, columns = task
    monitor = restore_monitor(decode_snapshot(blob))
    reports, unions = monitor.ingest_days(*columns)
    return (
        encode_snapshot(snapshot_monitor(monitor)),
        tuple(_serialize_report(r) for r in reports),
        tuple(merge_unions(unions)),
    )


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
        if self.parallel and self.n_shards > 1:
            return self._process_parallel(shards)
        per_shard = []
        for shard, (monitor, columns) in enumerate(zip(self.monitors, shards, strict=True)):
            reports, self._unions[shard] = monitor.ingest_days(*columns)
            per_shard.append(reports)
        return merge_reports(per_shard)

    def _process_parallel(self, shards: list[_ShardColumns]) -> list[WindowCloseReport]:
        tasks: list[_ShardTask] = [
            (encode_snapshot(snapshot_monitor(monitor)), columns)
            for monitor, columns in zip(self.monitors, shards, strict=True)
        ]
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
        for shard, (blob, serialized, union) in enumerate(results):
            self.monitors[shard] = restore_monitor(decode_snapshot(blob))
            self._unions[shard] = [ItemUnion(*union)]
            per_shard.append([_deserialize_report(r) for r in serialized])
        return merge_reports(per_shard)

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window on every shard; merged reports.

        Always runs in the parent process — end-of-stream work is one
        pass over already-resident state, not worth a pool round trip.
        """
        return merge_reports([monitor.finish() for monitor in self.monitors])
