"""Tests for the metrics registry: instruments, merging, export."""

from __future__ import annotations

import json

import pytest

from repro.errors import SchemaError
from repro.obs.metrics import (
    CHECKPOINT_HITS,
    NULL_METRICS,
    MetricsRegistry,
    get_metrics,
    metrics_enabled,
    use_metrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(3)
        assert registry.counter_value("hits") == 4
        assert registry.counter_value("never_touched") == 0

    def test_instruments_are_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("level").set(1.0)
        registry.gauge("level").set(7.5)
        assert registry.gauge("level").value == 7.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (0.3, 0.1, 0.2):
            registry.histogram("stage_s").observe(value)
        summary = registry.histogram("stage_s").summary()
        assert summary["count"] == 3
        assert summary["total"] == pytest.approx(0.6)
        assert summary["p50"] == pytest.approx(0.2)
        assert summary["max"] == pytest.approx(0.3)


class TestMerge:
    def test_dump_merge_round_trip(self):
        worker = MetricsRegistry()
        worker.counter("shards").inc(2)
        worker.gauge("level").set(3.0)
        worker.histogram("stage_s").observe(0.5)

        parent = MetricsRegistry()
        parent.counter("shards").inc(1)
        parent.histogram("stage_s").observe(0.1)
        parent.merge(worker.dump())

        assert parent.counter_value("shards") == 3
        assert parent.gauge("level").value == 3.0
        assert parent.histogram("stage_s").values == [0.1, 0.5]

    def test_merge_is_picklable_payload(self):
        # The dump travels between processes as plain JSON-able dicts.
        worker = MetricsRegistry()
        worker.counter("c").inc()
        payload = json.loads(json.dumps(worker.dump()))
        parent = MetricsRegistry()
        parent.merge(payload)
        assert parent.counter_value("c") == 1

    def test_merge_rejects_garbage(self):
        parent = MetricsRegistry()
        with pytest.raises(SchemaError):
            parent.merge({"counters": {}})  # missing gauges/histogram_values
        with pytest.raises(SchemaError):
            parent.merge("not a dict")

    def test_merge_skips_unset_gauges(self):
        worker = MetricsRegistry()
        worker.gauge("level")  # created, never set
        parent = MetricsRegistry()
        parent.merge(worker.dump())
        assert parent.gauge("level").value is None


class TestSerialization:
    def test_to_dict_summarizes_histograms(self):
        registry = MetricsRegistry()
        registry.counter(CHECKPOINT_HITS).inc(5)
        registry.histogram("stage_s").observe(1.0)
        snapshot = registry.to_dict()
        assert snapshot["schema"] == "repro-metrics"
        assert snapshot["counters"] == {CHECKPOINT_HITS: 5}
        assert snapshot["histograms"]["stage_s"]["count"] == 1

    def test_export_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = registry.export_json(tmp_path / "metrics.json")
        revived = json.loads(path.read_text())
        assert revived["counters"] == {"c": 1}


class TestActiveRegistry:
    def test_default_is_null_and_records_nothing(self):
        assert get_metrics() is NULL_METRICS
        assert not metrics_enabled()
        NULL_METRICS.counter("anything").inc(100)
        assert NULL_METRICS.counter_value("anything") == 0
        assert NULL_METRICS.to_dict()["counters"] == {}

    def test_use_metrics_scopes_and_restores(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert get_metrics() is registry
            assert metrics_enabled()
            get_metrics().counter("scoped").inc()
        assert get_metrics() is NULL_METRICS
        assert registry.counter_value("scoped") == 1


class TestHistogramQuantiles:
    """Satellite of the soak harness: the SLO math it relies on."""

    def _hist(self, *values):
        registry = MetricsRegistry()
        for value in values:
            registry.histogram("stage_s").observe(value)
        return registry.histogram("stage_s")

    def test_empty_histogram_quantiles_to_zero(self):
        hist = self._hist()
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0

    def test_single_sample_returned_at_every_quantile(self):
        hist = self._hist(0.42)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.42)
        assert hist.summary()["p99"] == pytest.approx(0.42)

    def test_nearest_rank_on_known_distribution(self):
        hist = self._hist(*(float(v) for v in range(101)))
        assert hist.quantile(0.50) == pytest.approx(50.0)
        assert hist.quantile(0.95) == pytest.approx(95.0)
        assert hist.quantile(0.99) == pytest.approx(99.0)
        assert hist.quantile(0.0) == pytest.approx(0.0)
        assert hist.quantile(1.0) == pytest.approx(100.0)

    def test_quantile_ignores_observation_order(self):
        increasing = self._hist(0.1, 0.2, 0.9)
        shuffled = self._hist(0.9, 0.1, 0.2)
        for q in (0.5, 0.95, 0.99):
            assert increasing.quantile(q) == shuffled.quantile(q)

    def test_out_of_range_q_rejected(self):
        from repro.errors import ConfigError

        hist = self._hist(1.0)
        with pytest.raises(ConfigError, match="quantile q"):
            hist.quantile(1.5)
        with pytest.raises(ConfigError, match="quantile q"):
            hist.quantile(-0.01)

    def test_summary_quantiles_match_quantile_method(self):
        hist = self._hist(0.3, 0.1, 0.2, 0.8, 0.5)
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(hist.quantile(0.50))
        assert summary["p95"] == pytest.approx(hist.quantile(0.95))
        assert summary["p99"] == pytest.approx(hist.quantile(0.99))

    def test_null_histogram_quantile_is_zero(self):
        assert NULL_METRICS.histogram("stage_s").quantile(0.99) == 0.0

    def test_quantiles_after_worker_dump_merge(self):
        # The shard executor (run_sharded) merges worker dumps into the
        # parent registry; quantiles over the merged values must equal
        # quantiles over the union as if observed in one process.
        workers = [MetricsRegistry() for _ in range(3)]
        union = []
        for index, worker in enumerate(workers):
            for value in range(index * 10, index * 10 + 10):
                worker.histogram("stage_s").observe(float(value))
                union.append(float(value))
        parent = MetricsRegistry()
        for worker in workers:
            parent.merge(worker.dump())
        merged = parent.histogram("stage_s")
        reference = MetricsRegistry()
        for value in union:
            reference.histogram("stage_s").observe(value)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == pytest.approx(
                reference.histogram("stage_s").quantile(q)
            )
        assert merged.summary()["count"] == 30
