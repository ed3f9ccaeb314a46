"""Batch ingest against one basket at a time, byte for byte, and each
batch's journal against the state the batch leaves.

Seeded histories (``tests/core/histories.py``) are cut into random
batches: a batch may split a day, and most cross a window boundary.  The
histories hold empty baskets and customers first seen in a batch that
closes a window, and every monitor also registers customers who never
buy.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.streaming import StabilityMonitor, WindowCloseReport
from repro.data.basket import Basket, iter_day_batches
from repro.runtime.snapshot import (
    decode_snapshot,
    encode_snapshot,
    fold_unions,
    snapshot_monitor,
)
from repro.serve import ShardedMonitorPool
from tests.core.histories import seeded_log

SEEDS = range(12)
#: Registered up front, never buying.
SILENT = (40, 41)
CONFIG = ExperimentConfig(window_months=1)


def _cuts(rng: random.Random, n: int, longest: int) -> list[tuple[int, int]]:
    """``[0, n)`` cut into consecutive ranges of 1 to ``longest``."""
    cuts, lo = [], 0
    while lo < n:
        hi = min(n, lo + rng.randint(1, longest))
        cuts.append((lo, hi))
        lo = hi
    return cuts


def _columns(baskets: list[Basket]) -> tuple:
    """Day-ordered baskets as :meth:`StabilityMonitor.ingest_days` takes
    them."""
    days: list[int] = []
    ends: list[int] = []
    for index, basket in enumerate(baskets):
        if not days or basket.day != days[-1]:
            days.append(basket.day)
            ends.append(index)
        ends[-1] = index + 1
    return (
        days,
        ends,
        np.array([b.customer_id for b in baskets], np.int64),
        np.array([len(b.items) for b in baskets], np.int64),
        np.array([item for b in baskets for item in b.items], np.int64),
    )


def _assert_same_reports(got: list[WindowCloseReport], want: list[WindowCloseReport]) -> None:
    assert [r.window_index for r in got] == [r.window_index for r in want]
    for left, right in zip(got, want, strict=True):
        assert list(left.stabilities) == list(right.stabilities)
        for customer, value in left.stabilities.items():
            other = right.stabilities[customer]
            assert value == other or (math.isnan(value) and math.isnan(other))
        assert left.alarms == right.alarms


def _state(monitor: StabilityMonitor) -> bytes:
    return encode_snapshot(snapshot_monitor(monitor))


def test_batch_ingest_matches_one_basket_at_a_time():
    """After every batch: the same reports, and the same snapshot bytes,
    from ``ingest_days`` (snapshotted each batch) and ``ingest_many``
    (never snapshotted before the end, so a close merges many unions)
    as from ``ingest`` one basket at a time."""
    covered = {"boundary inside a batch": 0, "empty basket": 0, "newcomer closing": 0}
    for seed in SEEDS:
        calendar, baskets = seeded_log(seed)
        grid = CONFIG.grid(calendar)
        single, batched, many = (StabilityMonitor(grid) for _ in range(3))
        for monitor in (single, batched, many):
            for customer in SILENT:
                monitor.register(customer)
        seen: set[int] = set(SILENT)
        for lo, hi in _cuts(random.Random(seed), len(baskets), 40):
            part = baskets[lo:hi]
            want = [report for basket in part for report in single.ingest(basket)]
            got, _ = batched.ingest_days(*_columns(part))
            _assert_same_reports(got, want)
            _assert_same_reports(many.ingest_many(part), want)
            assert _state(batched) == _state(single), (seed, lo)
            windows = {grid.window_of_day(b.day) for b in part}
            covered["boundary inside a batch"] += len(windows) > 1
            covered["empty basket"] += any(not b.items for b in part)
            covered["newcomer closing"] += bool(want) and any(
                b.customer_id not in seen for b in part
            )
            seen.update(b.customer_id for b in part)
        want = single.finish()
        _assert_same_reports(batched.finish(), want)
        _assert_same_reports(many.finish(), want)
        assert _state(batched) == _state(single) == _state(many), seed
    assert all(covered.values()), covered


@pytest.mark.parametrize("n_shards", [1, 3])
def test_each_journal_folds_onto_the_previous_snapshot(n_shards):
    """A batch that closes no window: its journal, folded with
    ``fold_unions`` onto the snapshot before it, is the snapshot after
    it, shard by shard."""
    folded = 0
    for seed in SEEDS:
        calendar, baskets = seeded_log(seed)
        days = list(iter_day_batches(baskets))
        pool = ShardedMonitorPool.create(CONFIG.grid(calendar), n_shards=n_shards)
        previous = [decode_snapshot(encode_snapshot(p)) for p in pool.snapshot_shards()]
        for lo, hi in _cuts(random.Random(seed), len(days), 6):
            reports = pool.process_batch(days[lo:hi])
            live = [encode_snapshot(payload) for payload in pool.snapshot_shards()]
            if not reports:
                for payload, entry, now in zip(previous, pool.journal_shards(), live, strict=True):
                    fold_unions(
                        payload,
                        entry["customers"],
                        np.diff(entry["item_offsets"]),
                        entry["items"],
                        entry["last_day_seen"],
                    )
                    assert encode_snapshot(payload) == now, (seed, lo)
                folded += 1
            previous = [decode_snapshot(blob) for blob in live]
    assert folded > 20


def test_parallel_journals_are_the_serial_ones():
    """The worker path ships each shard's column slice to the same
    ingest, and its unions back: batch by batch, the same journal and
    the same shard snapshots as the in-process path."""
    calendar, baskets = seeded_log(3)
    days = list(iter_day_batches(baskets))
    serial, parallel = (
        ShardedMonitorPool.create(CONFIG.grid(calendar), n_shards=3, parallel=flag)
        for flag in (False, True)
    )
    for lo, hi in _cuts(random.Random(3), len(days), 12)[:4]:
        _assert_same_reports(
            parallel.process_batch(days[lo:hi]), serial.process_batch(days[lo:hi])
        )
        for left, right in zip(parallel.journal_shards(), serial.journal_shards(), strict=True):
            assert left["last_day_seen"] == right["last_day_seen"]
            for name in ("customers", "item_offsets", "items"):
                assert left[name].tolist() == right[name].tolist(), name
        assert [encode_snapshot(p) for p in parallel.snapshot_shards()] == [
            encode_snapshot(p) for p in serial.snapshot_shards()
        ]
