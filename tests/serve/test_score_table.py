"""Tests for the served score table: every scored customer's stability,
flag and alarm windows, kept in the shard monitors' columns and alarm
log, committed in the shard snapshot files, read back by
:func:`~repro.core.streaming.monitor_scores`."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from repro.core.streaming import monitor_scores
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket, DayBatch
from repro.obs import MetricsRegistry, metrics as obs_metrics, use_metrics
from repro.runtime.snapshot import decode_snapshot, encode_snapshot
from repro.serve import ServeCheckpoint, ShardedMonitorPool, serve_stream


def _pool() -> ShardedMonitorPool:
    """Two shards after three closed windows: customer 2 is registered
    but never buys, 5 keeps its one item, and 9 drops one of its two
    items in window 1 (stability 0.5) and both in window 2 (0.0)."""
    pool = ShardedMonitorPool.create(WindowGrid.daily(40, 10), n_shards=2)
    pool.monitors[0].register(2)
    days = [
        (0, [(5, [1]), (9, [1, 2])]),
        (10, [(5, [1]), (9, [1])]),
        (20, [(5, [1])]),
        (30, [(5, [1])]),
    ]
    for day, baskets in days:
        pool.process_batch(
            [DayBatch(day, tuple(Basket.of(c, day, items) for c, items in baskets))]
        )
    return pool


def test_round_trip_through_the_container():
    payloads = [
        decode_snapshot(encode_snapshot(p)) for p in _pool().snapshot_shards()
    ]
    # Shard 1 owns customers 5 and 9, and so both of 9's alarms.
    assert payloads[1]["customers"].tolist() == [5, 9]
    assert payloads[1]["alarm_customers"].tolist() == [9, 9]
    assert payloads[1]["alarm_windows"].tolist() == [1, 2]
    assert payloads[0]["alarm_customers"].tolist() == []
    restored = ShardedMonitorPool.from_snapshots(payloads)
    scores, flags, alarm_windows = monitor_scores(restored.monitors)
    assert list(scores) == [2, 5, 9]
    assert math.isnan(scores[2])
    assert (scores[5], scores[9]) == (1.0, 0.0)
    assert flags == {2: False, 5: False, 9: True}
    assert alarm_windows == {2: (), 5: (), 9: ((1, 0.5), (2, 0.0))}


def _drop(column: str):
    def corrupt(payload: dict) -> None:
        payload[column] = payload[column][:-1]

    return corrupt


def _reverse_alarms(payload: dict) -> None:
    for name in ("alarm_customers", "alarm_windows", "alarm_stability"):
        payload[name] = payload[name][::-1].copy()


@pytest.mark.parametrize(
    ("corrupt", "message"),
    [
        (_drop("last_stability"), "differ in length"),
        (_drop("alarm_stability"), "differ in length"),
        (_reverse_alarms, "not strictly ascending"),
        (lambda p: p.pop("alarm_windows"), "alarm_windows"),
        (lambda p: p.update(customers={"2": 0.5}), "customers"),
    ],
    ids=["stability", "alarm-stability", "order", "missing", "json-era"],
)
def test_malformed_table_is_cursor_invalid(
    stream_path, serve_config, offline_reference, tmp_path, caplog, corrupt, message
):
    """A shard file whose table columns are malformed, though its
    checksum holds, is not resumed: the run restarts from the head."""
    ckpt = tmp_path / "ckpt"
    serve_stream(stream_path, ckpt, config=serve_config, batch_size=200)
    checkpoint = ServeCheckpoint(ckpt)
    path = checkpoint.shard_path(checkpoint.read_cursor().base_index, 0)
    payload = decode_snapshot(path.read_bytes())
    assert len(payload["alarm_customers"]) > 1
    assert np.any(payload["n_windows_observed"] > 0)
    corrupt(payload)
    path.write_bytes(encode_snapshot(payload))
    registry = MetricsRegistry()
    with use_metrics(registry), caplog.at_level(
        logging.WARNING, logger="repro.serve.loop"
    ):
        result = serve_stream(stream_path, ckpt, config=serve_config, batch_size=200)
    assert not result.resumed
    assert result.finished
    assert result.fingerprint() == offline_reference.fingerprint()
    assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
    assert any(
        "restarting from stream head" in r.message and message in r.message
        for r in caplog.records
    )
