"""Tests for Prometheus exposition and the periodic metrics publisher."""

from __future__ import annotations

import json

import pytest

from repro.errors import SchemaError
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsPublisher,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder, read_flight_jsonl
from repro.obs.metrics import SOAK_SLO_BURN, MetricsRegistry
from repro.obs.windows import WindowedMetrics


def _snapshot() -> dict[str, object]:
    return {
        "schema": "repro-metrics-window",
        "counters": {"serve.ingested": 4310, "soak.faults_injected": 6},
        "gauges": {"serve.lag_days": 3.0, "serve.queue_depth": 0.0},
        "rates": {"serve.ingested": 862.5},
        "windows": {
            "serve.batch_s": {
                "count": 17.0,
                "sum": 0.5,
                "p50": 0.001,
                "p95": 0.002,
                "p99": 0.003,
                "max": 0.003,
            }
        },
    }


class TestRenderPrometheus:
    def test_counters_become_total_series(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_serve_ingested_total counter" in text
        assert "repro_serve_ingested_total 4310" in text
        assert "repro_soak_faults_injected_total 6" in text

    def test_gauges_and_rates(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_serve_lag_days gauge" in text
        assert "repro_serve_lag_days 3" in text
        assert "# TYPE repro_serve_ingested_rate gauge" in text
        assert "repro_serve_ingested_rate 862.5" in text

    def test_window_summaries_with_quantile_labels(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_serve_batch_s summary" in text
        assert 'repro_serve_batch_s{quantile="0.5"} 0.001' in text
        assert 'repro_serve_batch_s{quantile="0.99"} 0.003' in text
        assert "repro_serve_batch_s_count 17" in text
        assert "repro_serve_batch_s_sum 0.5" in text

    def test_output_is_deterministic(self):
        assert render_prometheus(_snapshot()) == render_prometheus(_snapshot())

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({"schema": "repro-metrics-window"}) == ""

    def test_content_type_is_exposition_004(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestParsePrometheus:
    def test_round_trip(self):
        series = parse_prometheus(render_prometheus(_snapshot()))
        assert series["repro_serve_ingested_total"] == 4310.0
        assert series["repro_serve_lag_days"] == 3.0
        assert series['repro_serve_batch_s{quantile="0.99"}'] == 0.003
        assert series["repro_serve_batch_s_count"] == 17.0

    def test_comments_and_blanks_skipped(self):
        series = parse_prometheus("# HELP x\n\n# TYPE x counter\nx_total 1\n")
        assert series == {"x_total": 1.0}

    def test_malformed_line_raises(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_prometheus("just_a_name_no_value\n")
        with pytest.raises(SchemaError, match="malformed"):
            parse_prometheus("name not_a_number\n")


class _Board:
    def __init__(self) -> None:
        self.texts: list[str] = []
        self.samples: list[dict[str, object]] = []

    def set_metrics_text(self, text: str) -> None:
        self.texts.append(text)

    def push_metrics_sample(self, snapshot: dict[str, object]) -> None:
        self.samples.append(snapshot)


class TestMetricsPublisher:
    def test_tick_publishes_and_delivers_everywhere(self, tmp_path):
        board = _Board()
        flight = FlightRecorder(tmp_path / "flight")
        stream = tmp_path / "stream.jsonl"
        publisher = MetricsPublisher(
            board=board, flight=flight, stream_path=stream, interval_s=0.0
        )
        registry = MetricsRegistry()
        registry.counter("serve.ingested").inc(10)
        snapshot = publisher.tick(registry)
        assert snapshot is not None
        assert publisher.published == 1
        # Board got exposition text and the raw sample.
        assert "repro_serve_ingested_total 10" in board.texts[-1]
        assert board.samples[-1] is snapshot
        # The JSONL stream got one parseable line.
        line = json.loads(stream.read_text().splitlines()[-1])
        assert line["counters"] == {"serve.ingested": 10}
        assert "wall_ts" in line
        # The flight ring holds the snapshot.
        _, records = flight.trigger("fault:kill_resume"), None
        header, flight_records = read_flight_jsonl(flight.flushed[-1])
        assert flight_records[-1]["kind"] == "metrics"

    def test_interval_gates_publishing(self):
        publisher = MetricsPublisher(interval_s=3600.0)
        registry = MetricsRegistry()
        assert publisher.tick(registry) is not None  # first tick publishes
        assert publisher.tick(registry) is None  # inside the interval
        assert publisher.tick(registry, force=True) is not None
        assert publisher.published == 2

    def test_callable_context_resolved_only_on_publish(self):
        calls = []

        def context() -> dict[str, object]:
            calls.append(1)
            return {"n_shards": 2}

        publisher = MetricsPublisher(interval_s=3600.0)
        registry = MetricsRegistry()
        first = publisher.tick(registry, context=context)
        assert first is not None and first["context"] == {"n_shards": 2}
        publisher.tick(registry, context=context)  # gated: not resolved
        assert len(calls) == 1

    def test_slo_budgets_export_worst_burn_gauge(self):
        publisher = MetricsPublisher(
            windowed=WindowedMetrics(window_s=60.0, bucket_s=1.0),
            interval_s=0.0,
            slo_budgets_ms={"p50": 100.0, "p99": 50.0},
        )
        registry = MetricsRegistry()
        registry.histogram("serve.batch_s").observe(0.1)  # 100ms
        snapshot = publisher.tick(registry, force=True)
        assert snapshot is not None
        assert snapshot["burn"]["p99"] == pytest.approx(2.0)
        assert snapshot["gauges"][SOAK_SLO_BURN] == pytest.approx(2.0)

    def test_bare_publisher_needs_no_sinks(self):
        publisher = MetricsPublisher(interval_s=0.0)
        registry = MetricsRegistry()
        assert publisher.tick(registry) is not None
        publisher.record_event("ignored")  # no flight: no-op
        assert publisher.trigger_flight("fault:none") is None

    def test_trigger_flight_proxies_to_recorder(self, tmp_path):
        flight = FlightRecorder(tmp_path)
        publisher = MetricsPublisher(flight=flight, interval_s=0.0)
        publisher.record_event("fault_injected", site="kill_resume")
        path = publisher.trigger_flight("fault:kill_resume", commit_index=3)
        assert path is not None and path.name == "flight-0003.jsonl"
        header, records = read_flight_jsonl(path)
        assert header["reason"] == "fault:kill_resume"
        assert records[-1]["event"] == "fault_injected"
