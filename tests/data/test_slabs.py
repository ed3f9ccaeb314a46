"""Tests for repro.data.slabs — the out-of-core slab data plane.

Two contracts are pinned here:

* **bit-identity** — a slab store built from a basket stream holds
  byte-for-byte the columns :meth:`PopulationFrame.from_log` builds in
  RAM, and every registered engine produces bit-identical scores on
  the mmap-backed frame (including sharded slab-reference workers and
  checkpoint-resumed evaluation sweeps);
* **durability** — a torn, stale or version-incompatible store raises a
  typed :class:`~repro.errors.SlabStoreError` instead of being mapped.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.batch import stability_matrix
from repro.core.model import StabilityModel
from repro.core.significance import LinearSignificance
from repro.data.population import PopulationFrame
from repro.data.slabs import (
    SLAB_STORE_VERSION,
    build_slab_store,
    chunks_from_baskets,
    ensure_slab_store,
    open_slab_store,
)
from repro.errors import SlabStoreError
from repro.eval.protocol import EvaluationProtocol
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.metrics import SLAB_STORE_HITS, SLAB_STORE_MISSES

_COLUMNS = (
    "customer_ids",
    "basket_offsets",
    "basket_days",
    "basket_monetary",
    "pair_offsets",
    "pair_items",
    "triple_offsets",
    "triple_window",
    "item_vocab",
)


def _grid(dataset):
    return ExperimentConfig(window_months=2).grid(dataset.calendar)


def _build(dataset, directory, **kwargs):
    kwargs.setdefault("customers_per_shard", 5)
    kwargs.setdefault("n_buckets", 3)
    return build_slab_store(
        chunks_from_baskets(dataset.log, chunk_baskets=64),
        _grid(dataset),
        directory,
        fingerprint=dataset.bundle.fingerprint(),
        **kwargs,
    )


@pytest.fixture()
def store(tiny_dataset, tmp_path):
    return _build(tiny_dataset, tmp_path / "store")


class TestBuildAndOpen:
    def test_columns_bit_identical_to_from_log(self, tiny_dataset, store):
        reference = PopulationFrame.from_log(
            tiny_dataset.log, _grid(tiny_dataset)
        )
        frame = PopulationFrame.from_slabs(store)
        for name in _COLUMNS:
            ours, theirs = getattr(frame, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name

    def test_frame_remembers_store_path(self, store):
        frame = store.frame()
        assert frame.store_path == str(store.directory)
        assert frame.log is None

    def test_grid_roundtrips_through_manifest(self, tiny_dataset, store):
        assert store.grid() == _grid(tiny_dataset)

    def test_shard_bounds_cover_population(self, store):
        bounds = store.shard_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == store.n_customers
        assert all(lo < hi for lo, hi in bounds)
        assert all(
            prev_hi == lo
            for (__, prev_hi), (lo, __) in zip(bounds, bounds[1:])
        )

    def test_single_shard_build_matches_many_shard_build(
        self, tiny_dataset, tmp_path
    ):
        one = _build(tiny_dataset, tmp_path / "one", customers_per_shard=10_000)
        many = _build(tiny_dataset, tmp_path / "many", customers_per_shard=2)
        for name in _COLUMNS:
            assert np.array_equal(one.column(name), many.column(name)), name

    def test_empty_stream_builds_empty_store(self, tiny_dataset, tmp_path):
        store = build_slab_store(
            iter(()), _grid(tiny_dataset), tmp_path / "empty", fingerprint="e"
        )
        assert store.n_customers == 0
        assert store.shard_bounds() == []
        frame = store.frame()
        assert frame.n_customers == 0
        assert len(frame.basket_offsets) == 1  # CSR leading zero survives

    def test_chunking_is_invisible(self, tiny_dataset, tmp_path):
        coarse = build_slab_store(
            chunks_from_baskets(tiny_dataset.log, chunk_baskets=10_000),
            _grid(tiny_dataset),
            tmp_path / "coarse",
            fingerprint="c",
        )
        fine = build_slab_store(
            chunks_from_baskets(tiny_dataset.log, chunk_baskets=1),
            _grid(tiny_dataset),
            tmp_path / "fine",
            fingerprint="c",
        )
        for name in _COLUMNS:
            assert np.array_equal(coarse.column(name), fine.column(name)), name


class TestEnsure:
    def test_miss_builds_then_hit_reuses(self, tiny_dataset, tmp_path):
        fingerprint = tiny_dataset.bundle.fingerprint()
        grid = _grid(tiny_dataset)
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
            second = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
        assert first.directory == second.directory
        assert registry.counter(SLAB_STORE_MISSES).value == 1
        assert registry.counter(SLAB_STORE_HITS).value == 1

    def test_torn_store_is_rebuilt(self, tiny_dataset, tmp_path):
        fingerprint = tiny_dataset.bundle.fingerprint()
        grid = _grid(tiny_dataset)
        store = ensure_slab_store(tmp_path, tiny_dataset.log, grid, fingerprint)
        (store.directory / "pair_items.bin").unlink()
        registry = MetricsRegistry()
        with use_metrics(registry):
            rebuilt = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
        assert registry.counter(SLAB_STORE_MISSES).value == 1
        assert (rebuilt.directory / "pair_items.bin").exists()


class TestTypedErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SlabStoreError, match="cannot read manifest"):
            open_slab_store(tmp_path / "nowhere")

    def test_corrupt_manifest_json(self, store):
        (store.directory / "manifest.json").write_text("{not json")
        with pytest.raises(SlabStoreError, match="not valid JSON"):
            open_slab_store(store.directory)

    def test_foreign_schema(self, store):
        (store.directory / "manifest.json").write_text(
            json.dumps({"schema": "something-else"})
        )
        with pytest.raises(SlabStoreError, match="not a slab-store manifest"):
            open_slab_store(store.directory)

    def test_version_bump_refuses_to_open(self, store):
        manifest = json.loads((store.directory / "manifest.json").read_text())
        manifest["version"] = SLAB_STORE_VERSION + 1
        (store.directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SlabStoreError, match="rebuild the store"):
            open_slab_store(store.directory)

    def test_missing_column_set(self, store):
        manifest = json.loads((store.directory / "manifest.json").read_text())
        del manifest["columns"]["pair_items"]
        (store.directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SlabStoreError, match="manifests columns"):
            open_slab_store(store.directory)

    def test_truncated_column_file(self, store):
        path = store.directory / "basket_days.bin"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SlabStoreError, match="torn"):
            open_slab_store(store.directory)

    def test_missing_column_file(self, store):
        (store.directory / "triple_window.bin").unlink()
        with pytest.raises(SlabStoreError, match="missing"):
            open_slab_store(store.directory)


def _assert_trajectories_bit_identical(reference, other):
    assert other.customers() == reference.customers()
    for customer in reference.customers():
        ref_t = reference.trajectory(customer)
        other_t = other.trajectory(customer)
        for k in range(reference.n_windows):
            a, b = ref_t.at(k), other_t.at(k)
            for field in ("stability", "kept_mass", "total_mass"):
                x, y = getattr(a, field), getattr(b, field)
                assert (math.isnan(x) and math.isnan(y)) or x == y, (
                    customer,
                    k,
                    field,
                )


class TestEngineBitIdentity:
    @pytest.fixture()
    def frames(self, tiny_dataset, store):
        reference = PopulationFrame.from_log(
            tiny_dataset.log, _grid(tiny_dataset)
        )
        return reference, store.frame()

    def test_every_engine_matches_in_ram(self, tiny_dataset, frames):
        # Every kernel path: the paper's rule, a table rule under the
        # since-first-seen scheme, and an item-weight column.
        in_ram, slab = frames
        for significance, counting, weights in (
            (None, "paper", None),
            (LinearSignificance(), "since-first-seen", None),
            (None, "paper", {min(tiny_dataset.log.item_universe()): 3.0}),
        ):
            def fit(frame):
                return StabilityModel(
                    tiny_dataset.calendar,
                    significance=significance,
                    item_weights=weights,
                    config=ExperimentConfig(window_months=2, counting=counting),
                ).fit(frame)

            _assert_trajectories_bit_identical(fit(in_ram), fit(slab))

    def test_sharded_slab_reference_workers_match_serial(self, frames):
        in_ram, slab = frames
        serial = stability_matrix(in_ram, alpha=2.0, n_jobs=1)
        sharded = stability_matrix(slab, alpha=2.0, n_jobs=2)
        assert np.array_equal(serial.customer_ids, sharded.customer_ids)
        for field in ("stability", "kept_mass", "total_mass"):
            ours = np.asarray(getattr(sharded, field))
            theirs = np.asarray(getattr(serial, field))
            assert ours.tobytes() == theirs.tobytes(), field

    def test_out_of_core_kernel_chunks_per_store_shard(self, frames):
        # customers_per_shard=5 on 24 customers -> the serial slab fit
        # must walk multiple chunks and still match bit-for-bit.
        in_ram, slab = frames
        serial = stability_matrix(in_ram, alpha=2.0)
        chunked = stability_matrix(slab, alpha=2.0)
        assert (
            np.asarray(chunked.stability).tobytes()
            == np.asarray(serial.stability).tobytes()
        )


class _InterruptingModel:
    """Delegates to a fitted model, dying after ``fail_after`` score calls."""

    def __init__(self, model, fail_after):
        self._model = model
        self._remaining = fail_after
        self.window_months = model.config.window_months

    def __getattr__(self, name):
        return getattr(self._model, name)

    def churn_scores(self, window_index, customers=None):
        if self._remaining <= 0:
            raise KeyboardInterrupt
        self._remaining -= 1
        return self._model.churn_scores(window_index, customers)


class TestCheckpointResumedSweep:
    def test_resumed_slab_sweep_matches_in_ram_reference(
        self, tiny_dataset, store, tmp_path
    ):
        bundle = tiny_dataset.bundle
        config = ExperimentConfig(window_months=2, backend="batch")
        grid = config.grid(bundle.calendar)
        ids = bundle.cohorts.all_customers()

        reference_model = StabilityModel(bundle.calendar, config=config).fit(
            PopulationFrame.from_log(bundle.log, grid)
        )
        reference = EvaluationProtocol(
            bundle, config=config
        ).evaluate_stability_model(reference_model, ids)

        slab_frame = store.frame()
        slab_model = StabilityModel(bundle.calendar, config=config).fit(
            slab_frame
        )
        n_cells = len(
            EvaluationProtocol(bundle, config=config).evaluation_windows(
                slab_model
            )
        )
        assert n_cells >= 4
        checkpoint_dir = tmp_path / "journal"

        interrupted = EvaluationProtocol(
            bundle,
            config=config,
            checkpoint_dir=checkpoint_dir,
            frame=slab_frame,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.evaluate_stability_model(
                _InterruptingModel(slab_model, n_cells // 2), ids
            )

        resumed = EvaluationProtocol(
            bundle,
            config=config,
            checkpoint_dir=checkpoint_dir,
            frame=slab_frame,
        ).evaluate_stability_model(slab_model, ids)
        assert resumed == reference

    def test_injected_frame_grid_must_match(self, tiny_dataset, store):
        from repro.errors import ConfigError

        bundle = tiny_dataset.bundle
        mismatched = ExperimentConfig(window_months=4, backend="batch")
        with pytest.raises(ConfigError, match="grid"):
            EvaluationProtocol(
                bundle, config=mismatched, frame=store.frame()
            )

    def test_injected_frame_is_served_to_scorers(self, tiny_dataset, store):
        bundle = tiny_dataset.bundle
        config = ExperimentConfig(window_months=2, backend="batch")
        protocol = EvaluationProtocol(
            bundle, config=config, frame=store.frame()
        )
        assert protocol.frame().store_path == str(store.directory)
