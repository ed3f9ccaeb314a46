"""The telemetry spine: tracing, metrics, progress, run manifests.

``repro.obs`` makes the engine/runtime/eval stack observable without
making it slower or different:

* :mod:`repro.obs.trace` — a lightweight span tracer
  (``span("fit.batch", customer_count=...)`` context managers) recording
  nested wall/CPU timings as JSONL-serialisable records, with safe
  merging of worker-process spans back into the parent trace;
* :mod:`repro.obs.metrics` — a process-local registry of named counters,
  gauges and histograms (checkpoint hits/misses, shard retries/degrades,
  cells computed vs. replayed, engine stage timings);
* :mod:`repro.obs.progress` — heartbeat progress for long sweeps (cells
  done / total, cells/sec, ETA, current cell key) over stdlib logging;
* :mod:`repro.obs.manifest` — the :class:`~repro.obs.manifest.RunManifest`
  written atomically next to every checkpoint journal, so resumable runs
  are self-describing;
* :mod:`repro.obs.windows`, :mod:`repro.obs.export`,
  :mod:`repro.obs.flight`, :mod:`repro.obs.tail` — the live telemetry
  plane (DESIGN.md §12): rolling-window rates/quantiles over the
  registry, Prometheus/JSONL exposition via a periodic publisher, a
  flight recorder flushed on faults and SLO violations, and the
  ``obs tail`` terminal dashboard.

The contract every instrumented call site relies on:

1. **Zero-cost when disabled** — the process-wide tracer and registry
   default to no-op implementations; instrumentation dispatches to them
   without allocating (pinned by the ``telemetry_overhead`` benchmark at
   <3% on the full evaluation sweep).
2. **Observation only** — telemetry never changes a computed value;
   scores with telemetry on are bit-identical to off (pinned by
   differential tests over serial and sharded fits).

:class:`TelemetrySession` is the CLI-facing bundle: it installs a
recording tracer/registry for the duration of a command and exports
``--trace-out`` / ``--metrics-out`` on the way out.
"""

from __future__ import annotations

import time
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING

from repro.obs.export import (
    MetricsPublisher,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder, read_flight_jsonl
from repro.obs.manifest import (
    MANIFEST_NAME,
    RunManifest,
    build_manifest,
    read_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    get_metrics,
    metrics_enabled,
    set_metrics,
    use_metrics,
)
from repro.obs.progress import NullProgress, ProgressReporter, progress
from repro.obs.trace import (
    NULL_SPAN,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    read_trace_jsonl,
    render_span_summary,
    set_tracer,
    span,
    summarize_spans,
    tracing_enabled,
    use_tracer,
    write_trace_jsonl,
)
from repro.obs.windows import WindowedMetrics

if TYPE_CHECKING:
    from repro.obs.trace import _NullSpan, _Span

__all__ = [
    "MANIFEST_NAME",
    "RunManifest",
    "build_manifest",
    "read_manifest",
    "write_manifest",
    "MetricsRegistry",
    "NullMetrics",
    "get_metrics",
    "metrics_enabled",
    "set_metrics",
    "use_metrics",
    "NullProgress",
    "ProgressReporter",
    "progress",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "read_trace_jsonl",
    "render_span_summary",
    "set_tracer",
    "span",
    "summarize_spans",
    "tracing_enabled",
    "use_tracer",
    "write_trace_jsonl",
    "timed_stage",
    "telemetry_enabled",
    "TelemetrySession",
    "WindowedMetrics",
    "MetricsPublisher",
    "FlightRecorder",
    "read_flight_jsonl",
    "render_prometheus",
    "parse_prometheus",
]


def telemetry_enabled() -> bool:
    """Whether any telemetry sink (tracer or metrics) is recording."""
    return tracing_enabled() or metrics_enabled()


class _StageTimer:
    """A span plus a histogram observation of the same interval."""

    __slots__ = ("_name", "_span", "_metrics", "_t0")

    def __init__(
        self,
        name: str,
        span_cm: _Span | _NullSpan,
        metrics: MetricsRegistry | NullMetrics,
    ) -> None:
        self._name = name
        self._span = span_cm
        self._metrics = metrics

    def __enter__(self) -> _StageTimer:
        self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = time.perf_counter() - self._t0
        self._span.__exit__(exc_type, exc, tb)
        self._metrics.histogram(self._name).observe(elapsed)
        return False


def timed_stage(name: str, **attrs: object) -> _StageTimer | _NullSpan:
    """Time one engine stage: a span *and* a histogram observation.

    With both telemetry sinks disabled this returns the shared no-op
    span — no clock reads, no allocation.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    if not tracer.enabled and not metrics.enabled:
        return NULL_SPAN
    return _StageTimer(name, tracer.span(name, **attrs), metrics)


class TelemetrySession:
    """Recording telemetry for the duration of one command.

    Installs a fresh :class:`Tracer` when ``trace_out`` is given and a
    fresh :class:`MetricsRegistry` when ``metrics_out`` is given, and on
    exit writes the trace JSONL / metrics JSON and restores whatever was
    active before.  With neither output set the session is a no-op and
    every instrumented path stays on the null implementations.
    """

    def __init__(
        self,
        trace_out: str | Path | None = None,
        metrics_out: str | Path | None = None,
    ) -> None:
        self.trace_out = Path(trace_out) if trace_out is not None else None
        self.metrics_out = Path(metrics_out) if metrics_out is not None else None
        self.tracer: Tracer | None = Tracer() if self.trace_out else None
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if self.metrics_out else None
        )
        self._prev_tracer: Tracer | NullTracer | None = None
        self._prev_metrics: MetricsRegistry | NullMetrics | None = None

    @property
    def active(self) -> bool:
        return self.tracer is not None or self.metrics is not None

    def __enter__(self) -> TelemetrySession:
        if self.tracer is not None:
            self._prev_tracer = set_tracer(self.tracer)
        if self.metrics is not None:
            self._prev_metrics = set_metrics(self.metrics)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self.tracer is not None:
            set_tracer(self._prev_tracer)
            write_trace_jsonl(self.trace_out, self.tracer.records)
        if self.metrics is not None:
            set_metrics(self._prev_metrics)
            self.metrics.export_json(self.metrics_out)
        return False
