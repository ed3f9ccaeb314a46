"""Seeded benchmark inputs and their references, made outside the measured process.

:func:`ensure_inputs` generates each (kind, seed) pair once into
``<work>/inputs/<kind>-seed<N>/`` together with a ``meta.json`` that
holds the generation parameters, a SHA-256 of every input file and the
reference outputs.  A later call re-hashes the files and regenerates them
if anything differs.

* ``serve``: the recorded 500-customer paper stream,
  ``paper_scenario(250, 250, seed)`` sorted by (day, customer).  The
  reference is the offline sweep (one monitor over the whole log): its
  score fingerprint plus the ingested, scored and flagged counts.
* ``slab``: ``synthetic_slab_stream(30_000, seed)`` over the paper
  calendar, saved chunk by chunk.  The reference is the digest of the
  churn scores at :data:`SLAB_WINDOW` from the in-RAM batch kernel, fed
  fully materialised columns of a store built from the same chunks.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1
#: Seeds whose inputs stay cached per kind.  Generating another seed
#: deletes the least recently used beyond these, which bounds the disk a
#: long series of seeds takes (one slab seed is about 85 MB).
KEEP_SEEDS = 6
SERVE_COHORT = (250, 250)
SLAB_CUSTOMERS = 30_000
#: Window index the slab-fit churn scores are read at (months 18-20,
#: the first window after the paper's defection onset).
SLAB_WINDOW = 9
_CHUNK_FIELDS = (
    "basket_customer",
    "basket_day",
    "basket_monetary",
    "item_customer",
    "item_day",
    "item_id",
)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def churn_digest(scores: dict[int, float]) -> str:
    """Order-independent digest of a churn-score table, bit-exact."""
    ids = np.array(sorted(scores), dtype=np.int64)
    values = np.array([scores[int(i)] for i in ids], dtype=np.float64)
    return hashlib.sha256(ids.tobytes() + values.tobytes()).hexdigest()[:16]


def slab_config():
    from repro.config import ExperimentConfig

    return ExperimentConfig(window_months=2, alpha=2.0, backend="batch")


def iter_chunks(path: Path):
    """Replay saved slab chunks one at a time (bounded memory)."""
    from repro.data.slabs import SlabChunk

    with np.load(path) as archive:
        count = int(archive["n_chunks"])
        for index in range(count):
            yield SlabChunk(
                **{f: archive[f"c{index:04d}_{f}"] for f in _CHUNK_FIELDS}
            )


def _serve_params(seed: int) -> dict:
    return {
        "kind": "serve",
        "seed": seed,
        "n_loyal": SERVE_COHORT[0],
        "n_churners": SERVE_COHORT[1],
        "generator_version": GENERATOR_VERSION,
    }


def _slab_params(seed: int) -> dict:
    return {
        "kind": "slab",
        "seed": seed,
        "n_customers": SLAB_CUSTOMERS,
        "window": SLAB_WINDOW,
        "generator_version": GENERATOR_VERSION,
    }


def _make_serve(directory: Path, seed: int) -> dict:
    from repro.config import ExperimentConfig
    from repro.core.streaming import StabilityMonitor
    from repro.serve.loop import offline_sweep_stream
    from repro.synth.scenarios import paper_scenario
    from repro.synth.stream import (
        read_stream_header,
        record_stream,
        replay_stream,
        stream_calendar,
    )

    dataset = paper_scenario(*SERVE_COHORT, seed=seed)
    baskets = sorted(dataset.log, key=lambda b: (b.day, b.customer_id))
    stream = record_stream(
        baskets,
        directory / "stream.jsonl",
        calendar=dataset.calendar,
        meta={
            "seed": seed,
            "n_loyal": SERVE_COHORT[0],
            "n_churners": SERVE_COHORT[1],
        },
    )
    sweep = offline_sweep_stream(stream)
    monitor = StabilityMonitor.from_config(
        stream_calendar(read_stream_header(stream)), ExperimentConfig()
    )
    reports = monitor.ingest_many(
        b for batch in replay_stream(stream) for b in batch.baskets
    )
    reports.extend(monitor.finish())
    return {
        "fingerprint": sweep.fingerprint(),
        "ingested": len(baskets),
        "scored": sum(len(r.stabilities) for r in reports),
        "flagged": sum(len(a) for a in sweep.alarm_windows.values()),
        "customers": len(sweep.scores),
    }


def _make_slab(directory: Path, seed: int) -> dict:
    from repro.core.model import StabilityModel
    from repro.data.calendar import StudyCalendar
    from repro.data.population import PopulationFrame
    from repro.data.slabs import build_slab_store
    from repro.synth.stream import synthetic_slab_stream

    calendar = StudyCalendar.paper()
    arrays: dict[str, np.ndarray] = {}
    count = 0
    for index, chunk in enumerate(
        synthetic_slab_stream(SLAB_CUSTOMERS, calendar.n_days, seed=seed)
    ):
        for name in _CHUNK_FIELDS:
            arrays[f"c{index:04d}_{name}"] = getattr(chunk, name)
        count += 1
    np.savez(directory / "chunks.npz", n_chunks=np.int64(count), **arrays)
    del arrays
    config = slab_config()
    scratch = directory / "reference-store"
    store = build_slab_store(
        iter_chunks(directory / "chunks.npz"),
        config.grid(calendar),
        scratch,
        fingerprint=f"perfbench-slab-seed{seed}",
    )
    columns = {
        name: np.array(store.column(name))
        for name in store.manifest["columns"]
    }
    receipts = int(store.manifest["columns"]["basket_days"]["rows"])
    store_bytes = sum(
        int(spec["nbytes"]) for spec in store.manifest["columns"].values()
    )
    frame = PopulationFrame(grid=store.grid(), **columns)
    model = StabilityModel(calendar, config=config).fit(frame)
    digest = churn_digest(model.churn_scores(SLAB_WINDOW))
    shutil.rmtree(scratch)
    return {
        "churn_digest": digest,
        "receipts": receipts,
        "customers": frame.n_customers,
        "store_bytes": store_bytes,
    }


def _valid(directory: Path, params: dict) -> dict | None:
    try:
        meta = json.loads((directory / "meta.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if meta.get("params") != params:
        return None
    for name, digest in meta.get("files", {}).items():
        path = directory / name
        if not path.is_file() or sha256_file(path) != digest:
            return None
    return meta


def _check_pin(kind: str, seed: int, reference: dict) -> None:
    """Reject a reference that disagrees with a value pinned in spec.json."""
    spec = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
    pin = spec["pins"].get(f"{kind}-seed{seed}")
    if pin is not None and {k: reference[k] for k in pin} != pin:
        raise SystemExit(
            f"reference for {kind} seed {seed} is {reference}, "
            f"spec.json pins {pin}"
        )


def ensure_inputs(work: Path, kind: str, seed: int) -> Path:
    """Generate (or re-verify) one seed's inputs; the meta.json path.

    Raises
    ------
    SystemExit
        If the reference disagrees with a value pinned in spec.json.
    """
    params = _serve_params(seed) if kind == "serve" else _slab_params(seed)
    directory = work / "inputs" / f"{kind}-seed{seed}"
    meta = _valid(directory, params)
    if meta is not None:
        _check_pin(kind, seed, meta["reference"])
        os.utime(directory)
        return directory / "meta.json"
    if directory.exists():
        shutil.rmtree(directory)
    cached = sorted(
        directory.parent.glob(f"{kind}-seed*"),
        key=lambda d: d.stat().st_mtime,
        reverse=True,
    )
    for stale in cached[KEEP_SEEDS - 1 :]:
        shutil.rmtree(stale)
    directory.mkdir(parents=True)
    make = _make_serve if kind == "serve" else _make_slab
    reference = make(directory, seed)
    _check_pin(kind, seed, reference)
    files = sorted(
        p.name for p in directory.iterdir() if p.is_file() and p.name != "meta.json"
    )
    meta = {
        "params": params,
        "files": {name: sha256_file(directory / name) for name in files},
        "reference": reference,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return directory / "meta.json"
