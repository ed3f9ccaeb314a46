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
from repro.core.streaming import ItemUnion, StabilityMonitor, WindowCloseReport
from repro.data.basket import Basket, iter_day_batches
from repro.runtime.snapshot import decode_snapshot, encode_snapshot, snapshot_monitor
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
            want = [report for basket in part for report in single.ingest_many([basket])]
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
    """A batch that closes no window: the snapshot before it, restored
    with the batch's journal as an open-window union and the journal's
    clock, is the snapshot after it, shard by shard."""
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
                journals = []
                for payload, entry in zip(previous, pool.journal_shards(), strict=True):
                    payload["last_day_seen"] = entry["last_day_seen"]
                    union = (entry["customers"], entry["item_offsets"], entry["items"])
                    journals.append([ItemUnion(*union)])
                restored = ShardedMonitorPool.from_snapshots(previous, journals)
                assert [
                    encode_snapshot(payload) for payload in restored.snapshot_shards()
                ] == live, (seed, lo)
                folded += 1
            previous = [decode_snapshot(blob) for blob in live]
    assert folded > 20

