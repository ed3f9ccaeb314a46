"""Integration tests for the live telemetry plane on the serving loop.

The contract under test is the one DESIGN.md §12 pins: attaching the
full publisher/window/flight stack must not change a single served
score, the status board must expose a parseable /metrics scrape, the
JSONL snapshot stream must feed `obs tail`, and a cursor fallback must
flush a flight artifact naming the trigger.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsPublisher,
    MetricsRegistry,
    parse_prometheus,
    read_flight_jsonl,
    use_metrics,
)
from repro.obs import metrics as obs_metrics
from repro.obs.tail import read_snapshot_stream
from repro.runtime.faults import tear_file
from repro.serve import ServeCheckpoint, StatusBoard
from repro.serve.loop import serve_stream

BATCH = 64


def _plane(tmp_path, **kwargs):
    """A publisher wired to every sink, publishing on every tick."""
    board = StatusBoard()
    flight = FlightRecorder(tmp_path / "flight")
    publisher = MetricsPublisher(
        board=board,
        flight=flight,
        stream_path=tmp_path / "metrics-stream.jsonl",
        interval_s=0.0,
        **kwargs,
    )
    return publisher, board, flight


class TestBitIdentical:
    def test_plane_on_matches_plane_off(
        self, stream_path, serve_config, offline_reference, tmp_path
    ):
        bare = serve_stream(
            stream_path, tmp_path / "off", config=serve_config, batch_size=BATCH
        )
        publisher, _, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            live = serve_stream(
                stream_path,
                tmp_path / "on",
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        assert live.fingerprint() == bare.fingerprint()
        assert live.fingerprint() == offline_reference.fingerprint()
        assert publisher.published > 0


class TestGaugesAndStream:
    def test_final_snapshot_seals_position_gauges(
        self, stream_path, serve_config, tmp_path
    ):
        publisher, board, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        snapshots = read_snapshot_stream(tmp_path / "metrics-stream.jsonl")
        final = snapshots[-1]
        gauges = final["gauges"]
        # A finished run has nothing queued and no stream lag.
        assert gauges[obs_metrics.SERVE_QUEUE_DEPTH] == 0.0
        assert gauges[obs_metrics.SERVE_LAG_DAYS] == 0.0
        # The sealing commit gets its own index past the data commits.
        assert (
            gauges[obs_metrics.SERVE_COMMIT_INDEX]
            == final["counters"][obs_metrics.SERVE_CHECKPOINTED] + 1
        )
        # Cumulative counters in the snapshot match the run's counters.
        assert (
            final["counters"][obs_metrics.SERVE_INGESTED]
            == result.counters.ingested
        )

    def test_snapshot_context_carries_shard_table(
        self, stream_path, serve_config, tmp_path
    ):
        publisher, _, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                n_shards=2,
                publisher=publisher,
            )
        final = read_snapshot_stream(tmp_path / "metrics-stream.jsonl")[-1]
        context = final["context"]
        assert context["n_shards"] == 2
        shards = context["shards"]
        assert [entry["shard"] for entry in shards] == [0, 1]
        assert sum(entry["customers"] for entry in shards) == 40

    def test_stream_lines_are_individually_parseable(
        self, stream_path, serve_config, tmp_path
    ):
        publisher, _, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        lines = (tmp_path / "metrics-stream.jsonl").read_text().splitlines()
        assert len(lines) == publisher.published
        for line in lines:
            json.loads(line)


class TestMetricsEndpoint:
    def test_metrics_503_until_first_publish(self):
        board = StatusBoard()
        code, payload = board.handle("/metrics")
        assert code == 503
        code, payload = board.handle("/metrics.jsonl")
        assert code == 503

    def test_scrape_parses_with_required_series(
        self, stream_path, serve_config, tmp_path
    ):
        publisher, board, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        code, text = board.handle("/metrics")
        assert code == 200
        series = parse_prometheus(text)
        assert series["repro_serve_ingested_total"] > 0
        assert series["repro_serve_checkpointed_total"] > 0
        assert "repro_serve_lag_days" in series
        assert 'repro_serve_batch_s{quantile="0.99"}' in series

    def test_metrics_jsonl_returns_recent_samples(
        self, stream_path, serve_config, tmp_path
    ):
        publisher, board, _ = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        code, text = board.handle("/metrics.jsonl")
        assert code == 200
        samples = [json.loads(line) for line in text.splitlines()]
        assert samples
        assert all(s["schema"] == "repro-metrics-window" for s in samples)


class TestFlightOnCursorFallback:
    def test_torn_cursor_flushes_a_flight_artifact(
        self, stream_path, serve_config, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        tear_file(ServeCheckpoint(ckpt).cursor_path, keep_fraction=0.4)
        publisher, _, flight = _plane(tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                publisher=publisher,
            )
        assert result.finished and not result.resumed
        assert flight.flushed, "cursor fallback must trigger a flight flush"
        header, records = read_flight_jsonl(flight.flushed[0])
        assert header["reason"] == "cursor_invalid"
        # The ring carries the fallback event itself.
        assert any(
            r.get("kind") == "event" and r.get("event") == "cursor_invalid"
            for r in records
        )


class TestPublisherIsOptional:
    def test_loop_runs_without_publisher_and_without_registry(
        self, stream_path, serve_config, tmp_path
    ):
        result = serve_stream(
            stream_path, tmp_path / "ckpt", config=serve_config, batch_size=BATCH
        )
        assert result.finished

    def test_publisher_with_null_metrics_still_publishes(
        self, stream_path, serve_config, tmp_path
    ):
        # No active registry: gauges read nothing, but the plumbing must
        # not crash and the stream still gets snapshot lines.
        publisher, _, _ = _plane(tmp_path)
        result = serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            publisher=publisher,
        )
        assert result.finished
        assert publisher.published > 0


@pytest.fixture(autouse=True)
def _no_registry_leak():
    """The active-registry contextvar must be restored by every test."""
    from repro.obs import metrics as m

    yield
    assert m.get_metrics() is m.NULL_METRICS
