"""Run manifests: every resumable run describes itself on disk.

A :class:`RunManifest` is the one-file answer to "what produced this
checkpoint directory?": the experiment name, the full
:class:`~repro.config.ExperimentConfig` (plus a short fingerprint of
it), the :meth:`DatasetBundle.fingerprint
<repro.data.validation.DatasetBundle.fingerprint>` of the data, the
seed, the engine backend, a rollup of the resilient executor's
:class:`~repro.runtime.executor.ExecutionReport`, and per-span /
per-instrument telemetry aggregates.

It is written **atomically next to the checkpoint journal** (same
temp-then-rename protocol as the journal's cells, under the reserved
name :data:`MANIFEST_NAME`, which the journal's listing skips), so a
directory of cells is never mute about its provenance.  Reading back
validates schema and version: a torn or foreign file raises
:class:`~repro.errors.ManifestError` rather than describing the wrong
run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.atomicio import atomic_write_json
from repro.errors import ManifestError

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry, NullMetrics
    from repro.obs.trace import NullTracer, Tracer
    from repro.runtime.executor import ExecutionReport

__all__ = [
    "MANIFEST_NAME",
    "RunManifest",
    "config_fingerprint",
    "build_manifest",
    "write_manifest",
    "read_manifest",
]

#: Reserved filename inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"

MANIFEST_SCHEMA = "repro-run-manifest"
MANIFEST_VERSION = 1


def config_fingerprint(config: dict) -> str:
    """Short stable digest of a config mapping (order-insensitive)."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RunManifest:
    """The self-description of one (resumable) run."""

    experiment: str
    config: dict
    config_fingerprint: str
    dataset_fingerprint: str | None = None
    seed: int | None = None
    backend: str | None = None
    execution: dict | None = None
    spans: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    created_unix: float = 0.0

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["schema"] = MANIFEST_SCHEMA
        payload["version"] = MANIFEST_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> RunManifest:
        """Validate and revive a serialized manifest.

        Raises
        ------
        ManifestError
            On schema / version mismatch or missing fields.
        """
        if not isinstance(payload, dict):
            raise ManifestError(f"manifest is not a JSON object: {payload!r}")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                f"not a run manifest (schema {payload.get('schema')!r}, "
                f"expected {MANIFEST_SCHEMA!r})"
            )
        if payload.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {payload.get('version')!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        for field_name in ("experiment", "config", "config_fingerprint"):
            if field_name not in payload:
                raise ManifestError(f"manifest missing {field_name!r}")
        if not isinstance(payload["config"], dict):
            raise ManifestError("manifest config is not an object")
        return cls(
            experiment=str(payload["experiment"]),
            config=dict(payload["config"]),
            config_fingerprint=str(payload["config_fingerprint"]),
            dataset_fingerprint=payload.get("dataset_fingerprint"),
            seed=payload.get("seed"),
            backend=payload.get("backend"),
            execution=payload.get("execution"),
            spans=dict(payload.get("spans") or {}),
            metrics=dict(payload.get("metrics") or {}),
            created_unix=float(payload.get("created_unix") or 0.0),
        )


def _execution_payload(report: ExecutionReport | None) -> dict | None:
    """An :class:`~repro.runtime.executor.ExecutionReport` as a rollup."""
    if report is None:
        return None
    return {
        "n_shards": report.n_shards,
        "max_workers": report.max_workers,
        "retries": report.retries,
        "n_retried": report.n_retried,
        "n_degraded": report.n_degraded,
        "fault_free": report.fault_free,
        "wall_seconds": report.wall_seconds,
        "summary": report.summary(),
    }


def build_manifest(
    experiment: str,
    config: object = None,
    dataset_fingerprint: str | None = None,
    seed: int | None = None,
    execution: ExecutionReport | None = None,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | NullMetrics | None = None,
) -> RunManifest:
    """Assemble a manifest from the run's live objects.

    ``config`` is an :class:`~repro.config.ExperimentConfig` (or any
    dataclass / mapping); ``execution`` an
    :class:`~repro.runtime.executor.ExecutionReport` or ``None``;
    ``tracer`` / ``metrics`` the active telemetry objects (their rollups
    are embedded, empty when telemetry is off).
    """
    from repro.obs.trace import summarize_spans

    if config is None:
        config_map: dict = {}
    elif isinstance(config, dict):
        config_map = dict(config)
    else:
        config_map = dataclasses.asdict(config)
    backend = config_map.get("backend")
    span_rollup = (
        summarize_spans(tracer.records)
        if tracer is not None and getattr(tracer, "enabled", False)
        else {}
    )
    metric_rollup = (
        metrics.to_dict()
        if metrics is not None and getattr(metrics, "enabled", False)
        else {}
    )
    return RunManifest(
        experiment=experiment,
        config=config_map,
        config_fingerprint=config_fingerprint(config_map),
        dataset_fingerprint=dataset_fingerprint,
        seed=seed,
        backend=backend,
        execution=_execution_payload(execution),
        spans=span_rollup,
        metrics=metric_rollup,
        created_unix=time.time(),
    )


def write_manifest(directory: str | Path, manifest: RunManifest) -> Path:
    """Atomically write ``manifest.json`` into a (checkpoint) directory.

    ``directory`` may also be a full file path; either way the write is
    temp-then-rename so a kill mid-write never leaves a torn manifest.
    A manifest already there is removed first, so the rename lands on a
    free name (a rename over an existing file costs tens of times more,
    DESIGN.md §10.2): the file is whole or absent, never torn.
    """
    target = Path(directory)
    if target.suffix != ".json":
        target.mkdir(parents=True, exist_ok=True)
        target = target / MANIFEST_NAME
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
    target.unlink(missing_ok=True)
    return atomic_write_json(target, manifest.to_dict(), indent=2)


def read_manifest(path: str | Path) -> RunManifest:
    """Read and validate a manifest file (or the directory holding one).

    Raises
    ------
    ManifestError
        If the file is missing, unparseable, or fails validation.
    """
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    try:
        text = path.read_text()
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}: corrupt or truncated manifest (invalid JSON)"
        ) from exc
    return RunManifest.from_dict(payload)
