"""Differential pin: telemetry observes, it never perturbs.

The same evaluation run with tracing + metrics recording must produce
bit-identical AUROC values to a run with telemetry disabled — serial
and sharded fits alike.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.protocol import EvaluationProtocol
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer


def _auroc_sweep(dataset, backend: str, n_jobs: int = 1) -> dict[int, float]:
    config = ExperimentConfig(
        window_months=2,
        alpha=2.0,
        first_month=18,
        last_month=24,
        backend=backend,
        n_jobs=n_jobs,
    )
    protocol = EvaluationProtocol(dataset.bundle, config=config)
    model = StabilityModel(dataset.calendar, config=config).fit(
        protocol.frame()
    )
    series = protocol.evaluate_stability_model(model)
    return {month: series.at_month(month) for month in series.months()}


@pytest.mark.parametrize("backend", ["batch"])
def test_scores_bit_identical_with_telemetry_on(tiny_dataset, backend):
    baseline = _auroc_sweep(tiny_dataset, backend)
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        observed = _auroc_sweep(tiny_dataset, backend)
    # Bit-identical, not approximately equal: telemetry must not touch
    # a single floating-point operation.
    assert observed == baseline
    assert tracer.records  # the run was actually traced
    assert any(r.name == "eval.cell" for r in tracer.records)


def test_sharded_batch_fit_bit_identical_with_telemetry_on(tiny_dataset):
    baseline = _auroc_sweep(tiny_dataset, "batch", n_jobs=2)
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        observed = _auroc_sweep(tiny_dataset, "batch", n_jobs=2)
    assert observed == baseline
    # The worker-side shard spans were merged into the parent trace.
    assert any(r.name == "executor.shard" for r in tracer.records)


def test_trace_covers_the_engine_stages(tiny_dataset):
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        _auroc_sweep(tiny_dataset, "batch")
    names = {r.name for r in tracer.records}
    assert "engine.fit" in names
    assert "engine.stage.significance_s" in names
    assert "engine.stage.normalize_s" in names
    # Stage histograms observed the same stages the spans timed.
    snapshot = registry.to_dict()
    assert snapshot["histograms"]["engine.stage.significance_s"]["count"] >= 1
