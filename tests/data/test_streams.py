"""Tests for repro.data.streams (out-of-core streaming I/O)."""

from __future__ import annotations

import re

import pytest

from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.io import write_log_csv
from repro.data.streams import (
    PartitionedLogWriter,
    iter_log_csv,
    iter_partitioned_log,
    stream_to_monitor,
)
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, SchemaError


@pytest.fixture()
def log() -> TransactionLog:
    log = TransactionLog()
    for customer in range(5):
        for day in range(customer, 50, 7):
            log.add(Basket.of(customer, day, items=[1, customer + 2], monetary=3.0))
    return log


class TestIterLogCsv:
    def test_streams_same_content_as_batch_reader(self, log, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        streamed = list(iter_log_csv(path))
        assert len(streamed) == log.n_baskets
        assert TransactionLog(streamed).item_universe() == log.item_universe()

    def test_is_lazy(self, tmp_path):
        path = tmp_path / "log.csv"
        for bad_row in ("BROKEN", "2,-4,1,1.0"):
            path.write_text(
                f"customer_id,day,items,monetary\n1,0,1,1.0\n{bad_row}\n"
            )
            stream = iter_log_csv(path)
            first = next(stream)
            assert first.customer_id == 1
            with pytest.raises(SchemaError, match=re.escape(f"{path}:3: ")):
                next(stream)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(SchemaError, match="header"):
            next(iter_log_csv(path))


class TestStreamToMonitor:
    def test_pumps_full_file(self, log, tmp_path):
        path = tmp_path / "log.csv"
        # The monitor requires day order, and write_log_csv groups rows by
        # customer, so write a truly day-ordered CSV by hand.
        import csv

        baskets = sorted(log, key=lambda b: b.day)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["customer_id", "day", "items", "monetary"])
            for basket in baskets:
                writer.writerow(
                    [
                        basket.customer_id,
                        basket.day,
                        " ".join(str(i) for i in sorted(basket.items)),
                        f"{basket.monetary:.2f}",
                    ]
                )
        grid = WindowGrid.daily(total_days=50, days_per_window=10)
        monitor = StabilityMonitor(grid)
        reports = stream_to_monitor(path, monitor)
        assert [r.window_index for r in reports] == list(range(5))
        assert monitor.customers() == [0, 1, 2, 3, 4]


class TestPartitionedLog:
    def test_round_trip(self, log, tmp_path):
        # Sub-cent amounts round-trip bit-exactly, as through write_log_csv.
        log.add(Basket.of(5, 3, items=[1], monetary=12.3456))
        log.add(Basket.of(6, 4, items=[2], monetary=0.1 + 0.2))
        directory = tmp_path / "shards"
        with PartitionedLogWriter(directory, n_shards=3) as writer:
            count = writer.write_all(log)
        assert count == log.n_baskets
        restored = TransactionLog(iter_partitioned_log(directory))
        assert restored.n_baskets == log.n_baskets
        for customer in log.customers():
            assert [
                (b.day, b.items, b.monetary) for b in restored.history(customer)
            ] == [(b.day, b.items, b.monetary) for b in log.history(customer)]

    def test_customers_stay_in_one_shard(self, log, tmp_path):
        directory = tmp_path / "shards"
        with PartitionedLogWriter(directory, n_shards=3) as writer:
            writer.write_all(log)
        for shard in range(3):
            customers = {
                basket.customer_id
                for basket in iter_log_csv(directory / f"shard-{shard:04d}.csv")
            }
            assert all(c % 3 == shard for c in customers)

    def test_selective_shard_read(self, log, tmp_path):
        directory = tmp_path / "shards"
        with PartitionedLogWriter(directory, n_shards=3) as writer:
            writer.write_all(log)
        only_zero = list(iter_partitioned_log(directory, shards=[0]))
        assert {b.customer_id for b in only_zero} == {0, 3}

    def test_merge_by_day_is_day_ordered(self, log, tmp_path):
        directory = tmp_path / "shards"
        baskets = sorted(log, key=lambda b: b.day)
        with PartitionedLogWriter(directory, n_shards=4) as writer:
            writer.write_all(baskets)
        merged = list(iter_partitioned_log(directory, merge_by_day=True))
        days = [b.day for b in merged]
        assert days == sorted(days)
        assert len(merged) == log.n_baskets

    def test_merge_ordering_differential_with_duplicate_days(
        self, tmp_path
    ):
        """The k-way merge is *stable across shards*: equal day keys
        resolve by shard index, so the merged stream is byte-identical
        to a stable day-sort of the shards' own concatenation — however
        interleaved or duplicated the day keys are."""
        log = TransactionLog()
        # Heavy day-key collisions: every customer visits every 5th day,
        # so each merge step must break a tie between shards.
        for customer in range(7):
            for day in range(0, 40, 5):
                log.add(
                    Basket.of(
                        customer,
                        day,
                        items=[customer + 1, 50 + day],
                        monetary=float(customer) + day / 100.0,
                    )
                )
        n_shards = 3
        directory = tmp_path / "shards"
        with PartitionedLogWriter(directory, n_shards=n_shards) as writer:
            writer.write_all(sorted(log, key=lambda b: b.day))

        merged = list(iter_partitioned_log(directory, merge_by_day=True))

        # Reference: concatenate the shard streams in shard order, then
        # stable-sort on the day key alone.
        concatenated = [
            basket
            for shard in range(n_shards)
            for basket in iter_partitioned_log(directory, shards=[shard])
        ]
        reference = sorted(concatenated, key=lambda b: b.day)

        assert [
            (b.customer_id, b.day, b.items, b.monetary) for b in merged
        ] == [(b.customer_id, b.day, b.items, b.monetary) for b in reference]

        # Byte-identical once serialised back to the canonical CSV form.
        write_log_csv(TransactionLog(merged), tmp_path / "merged.csv")
        write_log_csv(TransactionLog(reference), tmp_path / "reference.csv")
        assert (tmp_path / "merged.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()

    def test_merged_stream_feeds_monitor(self, log, tmp_path):
        directory = tmp_path / "shards"
        baskets = sorted(log, key=lambda b: b.day)
        with PartitionedLogWriter(directory, n_shards=4) as writer:
            writer.write_all(baskets)
        grid = WindowGrid.daily(total_days=50, days_per_window=10)
        monitor = StabilityMonitor(grid)
        monitor.ingest_many(iter_partitioned_log(directory, merge_by_day=True))
        reports = monitor.finish()
        assert reports  # the stream satisfied the monitor's day-order contract

    def test_write_outside_context_rejected(self, tmp_path):
        writer = PartitionedLogWriter(tmp_path / "x", n_shards=2)
        with pytest.raises(ConfigError, match="context"):
            writer.write(Basket.of(1, 0, items=[1]))

    def test_bad_shard_count(self, tmp_path):
        with pytest.raises(ConfigError):
            PartitionedLogWriter(tmp_path, n_shards=0)

    def test_missing_shards_detected(self, tmp_path):
        with pytest.raises(SchemaError, match="missing shard"):
            list(iter_partitioned_log(tmp_path / "nope", shards=[0]))
