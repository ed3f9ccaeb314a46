"""Fit-time telemetry: the perf trajectory between PRs.

One machine-readable artifact (``BENCH_scaling.json``) records, per
population size, how long a :class:`~repro.core.model.StabilityModel`
takes to fit — so a future PR that touches the hot path has a baseline
to compare against.  Both the ``bench`` CLI subcommand and
``benchmarks/bench_scaling.py`` build their payloads here.

Timing protocol: best-of-``repeat`` wall-clock of the kernel's fit on
a freshly constructed model (so no run benefits from caches); dataset
generation and the log's one encoding into a
:class:`~repro.data.population.PopulationFrame` are excluded.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

from repro.atomicio import atomic_write_json
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.data.population import PopulationFrame
from repro.data.validation import DatasetBundle
from repro.errors import ConfigError
from repro.synth import ScenarioConfig, SyntheticDataset, generate_dataset

__all__ = [
    "time_fit",
    "scaling_telemetry",
    "slab_grid_telemetry",
    "protocol_telemetry",
    "telemetry_overhead",
    "merge_scaling_json",
    "render_scaling",
]


def time_fit(
    dataset: SyntheticDataset,
    repeat: int = 3,
    n_jobs: int = 1,
    window_months: int = 2,
    alpha: float = 2.0,
) -> float:
    """Best-of-``repeat`` seconds to fit the model on a dataset.

    The log is encoded into a
    :class:`~repro.data.population.PopulationFrame` once, outside the
    timed region, so the figure is the kernel's, not the encoder's.
    """
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    config = ExperimentConfig(window_months=window_months, alpha=alpha, n_jobs=n_jobs)
    frame = PopulationFrame.from_log(dataset.log, config.grid(dataset.calendar))
    best = float("inf")
    for _ in range(repeat):
        model = StabilityModel(dataset.calendar, config=config)
        start = time.perf_counter()
        model.fit(frame)
        best = min(best, time.perf_counter() - start)
    return best


def scaling_telemetry(
    sizes: Sequence[int] = (25, 50, 100, 200),
    seed: int = 13,
    repeat: int = 3,
    n_jobs: int = 1,
    window_months: int = 2,
    alpha: float = 2.0,
) -> dict:
    """Fit-time telemetry across population sizes.

    ``sizes`` are per-cohort counts (total customers = ``2 * size``:
    loyal + churners, mirroring the paper's scenario generator).
    """
    results = []
    for size in sizes:
        start = time.perf_counter()
        dataset = generate_dataset(
            ScenarioConfig(n_loyal=size, n_churners=size, seed=seed)
        )
        generate_seconds = time.perf_counter() - start
        n_customers = dataset.log.n_customers
        seconds = time_fit(
            dataset,
            repeat=repeat,
            n_jobs=n_jobs,
            window_months=window_months,
            alpha=alpha,
        )
        results.append(
            {
                "customers": n_customers,
                "receipts": dataset.log.n_baskets,
                "generate_seconds": generate_seconds,
                "fit_seconds": seconds,
                "ms_per_customer": seconds / n_customers * 1e3,
            }
        )
    return {
        "benchmark": "stability_fit_scaling",
        "schema_version": 3,
        "window_months": window_months,
        "alpha": alpha,
        "seed": seed,
        "n_jobs": n_jobs,
        "repeat": repeat,
        "sizes_customers": [entry["customers"] for entry in results],
        "results": results,
    }


def slab_grid_telemetry(
    sizes: Sequence[int] = (1_000, 10_000, 100_000),
    seed: int = 13,
    window_months: int = 2,
    alpha: float = 2.0,
    root: str | Path | None = None,
) -> dict:
    """Out-of-core vs in-RAM fit telemetry across population sizes.

    For each ``size`` (total customers, not per-cohort) a deterministic
    synthetic purchase stream (:func:`repro.synth.synthetic_slab_stream`)
    is encoded once into an on-disk slab store, then the batch stability
    kernel runs twice: **mmap** — straight off the memory-mapped store
    through the chunked out-of-core kernel — and **in_ram** — after
    materialising every column into RAM (the materialisation is inside
    the measured region; that *is* the cost the slab plane avoids).

    Peaks are ``tracemalloc`` traced-allocation peaks, reset per arm:
    they capture numpy buffer allocations but not mmap pages, which is
    exactly the bounded-*heap* contract the slab plane makes.  The
    process-wide ``ru_maxrss`` high-water mark is recorded once per cell
    for context (it is monotonic across cells, so it cannot be
    attributed to an arm).  Scores are compared byte-for-byte
    (``bit_identical``) so the grid is also a standing differential
    test.  Stores build under ``root`` (a temporary directory when
    ``None``) and are removed afterwards.
    """
    import shutil
    import tempfile
    import tracemalloc

    import numpy as np

    from repro.core.batch import stability_matrix
    from repro.data.calendar import StudyCalendar
    from repro.data.slabs import _COLUMN_DTYPES, build_slab_store
    from repro.synth.stream import synthetic_slab_stream

    calendar = StudyCalendar.paper()
    grid = ExperimentConfig(window_months=window_months, alpha=alpha).grid(
        calendar
    )
    base = Path(tempfile.mkdtemp(prefix="slab-grid-")) if root is None else Path(root)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    results = []
    try:
        for size in sizes:
            directory = base / f"slab-{size}-seed{seed}"
            start = time.perf_counter()
            store = build_slab_store(
                synthetic_slab_stream(size, calendar.n_days, seed=seed),
                grid,
                directory,
                fingerprint=f"synthetic-{size}-seed{seed}",
            )
            build_seconds = time.perf_counter() - start

            tracemalloc.reset_peak()
            start = time.perf_counter()
            mmap_fit = stability_matrix(store.frame(), alpha=alpha)
            mmap_seconds = time.perf_counter() - start
            __, mmap_peak = tracemalloc.get_traced_memory()

            tracemalloc.reset_peak()
            start = time.perf_counter()
            ram_frame = PopulationFrame(
                grid=store.grid(),
                **{
                    name: np.array(store.column(name))
                    for name in _COLUMN_DTYPES
                },
            )
            ram_fit = stability_matrix(ram_frame, alpha=alpha)
            ram_seconds = time.perf_counter() - start
            __, ram_peak = tracemalloc.get_traced_memory()

            bit_identical = all(
                np.asarray(a).tobytes() == np.asarray(b).tobytes()
                for a, b in (
                    (mmap_fit.stability, ram_fit.stability),
                    (mmap_fit.kept_mass, ram_fit.kept_mass),
                    (mmap_fit.total_mass, ram_fit.total_mass),
                    (mmap_fit.customer_ids, ram_fit.customer_ids),
                )
            )
            entry = {
                "customers": size,
                "receipts": int(store.manifest["columns"]["basket_days"]["rows"]),
                "store_bytes": sum(
                    int(spec["nbytes"])
                    for spec in store.manifest["columns"].values()
                ),
                "build_seconds": build_seconds,
                "mmap": {
                    "fit_seconds": mmap_seconds,
                    "ms_per_customer": mmap_seconds / max(size, 1) * 1e3,
                    "peak_traced_mb": mmap_peak / 2**20,
                },
                "in_ram": {
                    "fit_seconds": ram_seconds,
                    "ms_per_customer": ram_seconds / max(size, 1) * 1e3,
                    "peak_traced_mb": ram_peak / 2**20,
                },
                "peak_ratio_mmap_vs_in_ram": (
                    mmap_peak / ram_peak if ram_peak else float("nan")
                ),
                "bit_identical": bit_identical,
                "ru_maxrss_mb": _ru_maxrss_mb(),
            }
            results.append(entry)
            shutil.rmtree(directory, ignore_errors=True)
    finally:
        if not was_tracing:
            tracemalloc.stop()
        if root is None:
            shutil.rmtree(base, ignore_errors=True)
    return {
        "scenario": "slab_grid",
        "schema_version": 1,
        "window_months": window_months,
        "alpha": alpha,
        "seed": seed,
        "sizes_customers": list(sizes),
        "results": results,
    }


def _ru_maxrss_mb() -> float:
    """Process peak RSS in MiB (Linux reports ru_maxrss in KiB)."""
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**10 if sys.platform != "darwin" else rss / 2**20


def _roc_sweep_frame(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    train: Sequence[int],
    test: Sequence[int],
) -> None:
    """The ROC sweep: one PopulationFrame feeds the stability fit and
    every per-window RFM refit."""
    from repro.baselines.rfm import RFMModel
    from repro.eval.protocol import EvaluationProtocol

    protocol = EvaluationProtocol(bundle, config=config)
    model = StabilityModel(bundle.calendar, config=config).fit(protocol.frame())
    protocol.evaluate_stability_model(model, test)
    rfm = RFMModel(bundle.calendar, config=config)
    protocol.evaluate_window_scorer(rfm, "rfm", train, test)


def protocol_telemetry(
    size: int = 200,
    seed: int = 13,
    repeat: int = 3,
    window_months: int = 2,
    alpha: float = 2.0,
    first_month: int = 12,
    last_month: int = 24,
) -> dict:
    """Wall-clock of the full Figure-1-style ROC sweep.

    ``size`` is per-cohort (total customers = ``2 * size``).  The sweep
    encodes the log once into a
    :class:`~repro.data.population.PopulationFrame` and runs the
    stability kernel plus the columnar RFM features on it.
    """
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    from repro.eval.protocol import EvaluationProtocol

    dataset = generate_dataset(
        ScenarioConfig(n_loyal=size, n_churners=size, seed=seed)
    )
    bundle = dataset.bundle
    config = ExperimentConfig(
        window_months=window_months,
        alpha=alpha,
        first_month=first_month,
        last_month=last_month,
    )
    train, test = EvaluationProtocol(bundle, config=config).train_test_split(
        seed=seed
    )
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        _roc_sweep_frame(bundle, config, train, test)
        best = min(best, time.perf_counter() - start)
    return {
        "scenario": "eval_protocol_roc_sweep",
        "customers": bundle.log.n_customers,
        "receipts": bundle.log.n_baskets,
        "window_months": window_months,
        "alpha": alpha,
        "first_month": first_month,
        "last_month": last_month,
        "seed": seed,
        "repeat": repeat,
        "sweep_seconds": best,
    }


def telemetry_overhead(
    size: int = 200,
    seed: int = 13,
    repeat: int = 3,
    window_months: int = 2,
    alpha: float = 2.0,
    first_month: int = 12,
    last_month: int = 24,
) -> dict:
    """Cost of *recording* telemetry on the full ROC sweep.

    Runs the frame-based Figure-1-style sweep twice per repetition,
    interleaved: once with the default no-op tracer/registry and once
    with a recording :class:`~repro.obs.Tracer` plus
    :class:`~repro.obs.MetricsRegistry` installed.  Both sweeps produce
    bit-identical AUROC (pinned by differential tests); the gap is the
    pure cost of span/instrument bookkeeping, pinned below 3% by the
    acceptance criteria.  ``size`` is per-cohort (total customers =
    ``2 * size``).
    """
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    from repro.eval.protocol import EvaluationProtocol
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    dataset = generate_dataset(
        ScenarioConfig(n_loyal=size, n_churners=size, seed=seed)
    )
    bundle = dataset.bundle
    config = ExperimentConfig(
        window_months=window_months,
        alpha=alpha,
        first_month=first_month,
        last_month=last_month,
    )
    train, test = EvaluationProtocol(bundle, config=config).train_test_split(
        seed=seed
    )
    # One untimed warmup so neither arm pays the first-call cost of
    # allocator/numpy cache priming — on a ~0.1s sweep that one-off cost
    # would otherwise dwarf the few-percent effect being measured.
    _roc_sweep_frame(bundle, config, train, test)
    disabled = float("inf")
    recording = float("inf")
    n_spans = 0
    for _ in range(repeat):
        start = time.perf_counter()
        _roc_sweep_frame(bundle, config, train, test)
        disabled = min(disabled, time.perf_counter() - start)
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            start = time.perf_counter()
            _roc_sweep_frame(bundle, config, train, test)
            recording = min(recording, time.perf_counter() - start)
        n_spans = len(tracer.records)
    return {
        "scenario": "telemetry_overhead",
        "customers": bundle.log.n_customers,
        "window_months": window_months,
        "alpha": alpha,
        "first_month": first_month,
        "last_month": last_month,
        "seed": seed,
        "repeat": repeat,
        "spans_per_sweep": n_spans,
        "disabled_seconds": disabled,
        "recording_seconds": recording,
        "overhead_pct": (recording - disabled) / disabled * 100.0,
    }


def merge_scaling_json(path: Path | str, updates: dict) -> dict:
    """Merge top-level keys into an existing telemetry artifact.

    Benches regenerate different top-level scenarios (the scaling grid,
    the slab grid) at different cadences; merging instead of overwriting
    lets each refresh its own keys without discarding the others.  A
    missing or unreadable artifact starts from scratch.  Returns the
    merged payload.
    """
    import json

    path = Path(path)
    merged: dict = {}
    try:
        existing = json.loads(path.read_text())
        if isinstance(existing, dict):
            merged = existing
    except (OSError, ValueError):
        pass
    merged.update(updates)
    atomic_write_json(path, merged, indent=2)
    return merged


def render_scaling(telemetry: dict) -> str:
    """Human-readable table of one telemetry payload."""
    from repro.eval.reporting import format_table

    header = ("customers", "receipts", "fit s", "ms/customer")
    rows = [
        (
            entry["customers"],
            entry["receipts"],
            f"{entry['fit_seconds']:.3f}",
            f"{entry['ms_per_customer']:.3f}",
        )
        for entry in telemetry["results"]
    ]
    table = format_table(header, rows)
    protocol = telemetry.get("eval_protocol")
    if protocol is not None:
        table += (
            f"\n\nfull ROC sweep ({protocol['customers']} customers): "
            f"{protocol['sweep_seconds']:.3f}s"
        )
    slab_grid = telemetry.get("slab_grid")
    if slab_grid is not None:
        header = (
            "customers",
            "receipts",
            "build s",
            "mmap s",
            "in-RAM s",
            "mmap peak MB",
            "in-RAM peak MB",
            "peak ratio",
            "bit-identical",
        )
        rows = [
            (
                entry["customers"],
                entry["receipts"],
                f"{entry['build_seconds']:.2f}",
                f"{entry['mmap']['fit_seconds']:.2f}",
                f"{entry['in_ram']['fit_seconds']:.2f}",
                f"{entry['mmap']['peak_traced_mb']:.1f}",
                f"{entry['in_ram']['peak_traced_mb']:.1f}",
                f"{entry['peak_ratio_mmap_vs_in_ram']:.2f}",
                "yes" if entry["bit_identical"] else "NO",
            )
            for entry in slab_grid["results"]
        ]
        table += "\n\nout-of-core slab grid:\n" + format_table(header, rows)
    overhead = telemetry.get("telemetry_overhead")
    if overhead is not None:
        table += (
            f"\n\ntelemetry ({overhead['customers']} customers, "
            f"{overhead['spans_per_sweep']} spans/sweep): "
            f"off {overhead['disabled_seconds']:.3f}s, "
            f"on {overhead['recording_seconds']:.3f}s "
            f"({overhead['overhead_pct']:+.1f}% overhead)"
        )
    return table
