"""Tests for ShardedMonitorPool: sharded == serial, bit for bit."""

from __future__ import annotations

import math

import pytest

from repro.core.streaming import StabilityMonitor
from repro.data.basket import Basket, DayBatch, iter_day_batches
from repro.errors import ConfigError
from repro.serve import ShardedMonitorPool, merge_reports, shard_of
from repro.serve.pool import _process_shard_batch, _shard_columns  # noqa: PLC2701
from repro.runtime.snapshot import encode_snapshot, snapshot_monitor


def _reference_reports(serve_dataset, day_ordered_baskets, serve_config):
    monitor = StabilityMonitor.from_config(
        serve_dataset.calendar, serve_config
    )
    reports = monitor.ingest_many(day_ordered_baskets)
    reports.extend(monitor.finish())
    return reports


def _assert_reports_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a.window_index == b.window_index
        assert list(a.stabilities) == list(b.stabilities)
        for cid in a.stabilities:
            x, y = a.stabilities[cid], b.stabilities[cid]
            # nan is a legal "undefined" stability; == would reject it.
            assert x == y or (math.isnan(x) and math.isnan(y))
        assert a.alarms == b.alarms


class TestSharding:
    def test_shard_of_partitions_completely(self):
        owners = {shard_of(cid, 4) for cid in range(100)}
        assert owners == {0, 1, 2, 3}

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_sharded_equals_single_monitor(
        self, serve_dataset, day_ordered_baskets, serve_config, n_shards
    ):
        pool = ShardedMonitorPool.create(
            serve_config.grid(serve_dataset.calendar),
            n_shards=n_shards,
            significance=serve_config.significance(),
            counting=serve_config.counting,
        )
        reports = pool.process_batch(
            list(iter_day_batches(day_ordered_baskets))
        )
        reports.extend(pool.finish())
        _assert_reports_identical(
            reports,
            _reference_reports(
                serve_dataset, day_ordered_baskets, serve_config
            ),
        )

    def test_parallel_equals_serial(
        self, serve_dataset, day_ordered_baskets, serve_config
    ):
        batches = list(iter_day_batches(day_ordered_baskets))

        def run(parallel):
            pool = ShardedMonitorPool.create(
                serve_config.grid(serve_dataset.calendar),
                n_shards=3,
                significance=serve_config.significance(),
                counting=serve_config.counting,
                parallel=parallel,
            )
            reports = pool.process_batch(batches)
            reports.extend(pool.finish())
            return reports

        _assert_reports_identical(run(False), run(True))

    def test_batched_equals_one_shot(
        self, serve_dataset, day_ordered_baskets, serve_config
    ):
        batches = list(iter_day_batches(day_ordered_baskets))

        def make_pool():
            return ShardedMonitorPool.create(
                serve_config.grid(serve_dataset.calendar),
                n_shards=2,
                significance=serve_config.significance(),
                counting=serve_config.counting,
            )

        one_shot = make_pool()
        expected = one_shot.process_batch(batches)
        expected.extend(one_shot.finish())

        chunked = make_pool()
        actual = []
        for start in range(0, len(batches), 7):
            actual.extend(chunked.process_batch(batches[start : start + 7]))
        actual.extend(chunked.finish())
        _assert_reports_identical(actual, expected)

    def test_snapshot_round_trip_mid_stream(
        self, serve_dataset, day_ordered_baskets, serve_config
    ):
        batches = list(iter_day_batches(day_ordered_baskets))
        cut = len(batches) // 2

        straight = ShardedMonitorPool.create(
            serve_config.grid(serve_dataset.calendar),
            n_shards=2,
            significance=serve_config.significance(),
            counting=serve_config.counting,
        )
        expected = straight.process_batch(batches)
        expected.extend(straight.finish())

        first = ShardedMonitorPool.create(
            serve_config.grid(serve_dataset.calendar),
            n_shards=2,
            significance=serve_config.significance(),
            counting=serve_config.counting,
        )
        actual = first.process_batch(batches[:cut])
        second = ShardedMonitorPool.from_snapshots(first.snapshot_shards())
        actual.extend(second.process_batch(batches[cut:]))
        actual.extend(second.finish())
        _assert_reports_identical(actual, expected)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_journal_shards_are_the_batch_unions(
        self, serve_dataset, day_ordered_baskets, serve_config, n_shards
    ):
        """The columnar journal against per-customer Python sets, over
        days with repeat visits, repeated items and (appended) empty
        baskets."""
        days = list(iter_day_batches(day_ordered_baskets))[40:60]
        last = days[-1].day
        empty = (Basket.of(10**6, last, []), Basket.of(7, last, []))
        days[-1] = DayBatch.of(last, [*days[-1].baskets, *empty])
        pool = ShardedMonitorPool.create(
            serve_config.grid(serve_dataset.calendar),
            n_shards=n_shards,
            significance=serve_config.significance(),
            counting=serve_config.counting,
        )
        pool.process_batch(days)
        unions: dict[int, set[int]] = {}
        for day in days:
            for basket in day.baskets:
                unions.setdefault(basket.customer_id, set()).update(basket.items)
        entries = pool.journal_shards()
        assert len(entries) == n_shards
        for shard, entry in enumerate(entries):
            expected = {c: u for c, u in unions.items() if shard_of(c, n_shards) == shard}
            offsets = entry["item_offsets"].tolist()
            assert entry["last_day_seen"] == days[-1].day
            assert entry["customers"].tolist() == sorted(expected)
            # The pool saw only these days, so they are every customer
            # the shard's monitor has seen.
            assert pool.monitors[shard].customers() == sorted(expected)
            assert [
                entry["items"][lo:hi].tolist() for lo, hi in zip(offsets, offsets[1:])
            ] == [sorted(expected[c]) for c in sorted(expected)]


class TestValidation:
    def test_zero_shards_rejected(self, serve_dataset, serve_config):
        with pytest.raises(ConfigError, match="n_shards"):
            ShardedMonitorPool.create(
                serve_config.grid(serve_dataset.calendar), n_shards=0
            )

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            ShardedMonitorPool([])

    def test_empty_batch_is_noop(self, serve_dataset, serve_config):
        pool = ShardedMonitorPool.create(
            serve_config.grid(serve_dataset.calendar), n_shards=2
        )
        assert pool.process_batch([]) == []

    def test_merge_reports_sorts_by_customer(self):
        assert merge_reports([]) == []


class TestWorkerPurity:
    def test_worker_is_idempotent(
        self, serve_dataset, day_ordered_baskets, serve_config
    ):
        monitor = StabilityMonitor.from_config(
            serve_dataset.calendar, serve_config
        )
        batches = list(iter_day_batches(day_ordered_baskets[:200]))
        (columns,) = _shard_columns(batches, 1)
        task = (encode_snapshot(snapshot_monitor(monitor)), columns)
        first = _process_shard_batch(task)
        second = _process_shard_batch(task)
        blob, reports, union = first
        assert blob == second[0] and reports == second[1]
        assert [part.tolist() for part in union] == [part.tolist() for part in second[2]]
        # The worker's state is the state of a monitor fed in-process.
        monitor.ingest_many(day_ordered_baskets[:200])
        assert blob == encode_snapshot(snapshot_monitor(monitor))
