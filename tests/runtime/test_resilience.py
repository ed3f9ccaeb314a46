"""Acceptance tests: the fault paths of fits and sweeps, end to end.

These are the scenarios ISSUE-level resilience promises:

* a worker killed mid-fit leaves the stability matrix bit-identical;
* a sweep killed halfway resumes from its checkpoint directory without
  recomputing finished cells;
* a corrupt checkpoint is detected, never silently ingested.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rfm import RFMModel
from repro.config import ExperimentConfig
from repro.core.batch import stability_matrix
from repro.core.model import StabilityModel
from repro.data.population import PopulationFrame
from repro.errors import CheckpointError
from repro.eval.protocol import EvaluationProtocol
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.faults import FaultPlan, tear_file


@pytest.fixture(scope="module")
def frame(tiny_dataset) -> PopulationFrame:
    config = ExperimentConfig(window_months=2)
    return PopulationFrame.from_log(
        tiny_dataset.log, config.grid(tiny_dataset.calendar)
    )


def _assert_same_matrices(a, b) -> None:
    assert np.array_equal(a.stability, b.stability, equal_nan=True)
    assert np.array_equal(a.kept_mass, b.kept_mass)
    assert np.array_equal(a.total_mass, b.total_mass)


def test_killed_worker_mid_fit_is_bit_identical(frame):
    serial = stability_matrix(frame, n_jobs=1)
    crashed = stability_matrix(
        frame,
        n_jobs=4,
        fault_plan=FaultPlan(crashes=((1, 0),)),
    )
    _assert_same_matrices(serial, crashed)
    assert crashed.execution is not None
    assert crashed.execution.n_shards == 4
    assert not crashed.execution.fault_free
    assert crashed.execution.n_retried >= 1


def test_exhausted_retries_still_bit_identical(frame):
    serial = stability_matrix(frame, n_jobs=1)
    degraded = stability_matrix(
        frame,
        n_jobs=2,
        retries=0,
        fault_plan=FaultPlan(crashes=((0, 0), (1, 0))),
    )
    _assert_same_matrices(serial, degraded)
    assert degraded.execution.n_degraded == 2


def test_model_surfaces_execution_report(tiny_dataset, frame):
    config = ExperimentConfig(window_months=2, backend="batch", n_jobs=3)
    model = StabilityModel(tiny_dataset.calendar, config=config).fit(frame)
    report = model.execution_report
    assert report is not None
    assert report.fault_free
    assert report.n_shards == 3

    serial = StabilityModel(
        tiny_dataset.calendar, config=config.evolve(backend="batch", n_jobs=1)
    ).fit(frame)
    assert serial.execution_report is None


class _CountingRFM(RFMModel):
    """RFM scorer that counts fits and can simulate a mid-sweep kill."""

    def __init__(self, *args, fail_after: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_fits = 0
        self.fail_after = fail_after

    def fit(self, log, cohorts, window_index, customers):
        if self.fail_after is not None and self.n_fits >= self.fail_after:
            raise KeyboardInterrupt("simulated kill at cell boundary")
        self.n_fits += 1
        return super().fit(log, cohorts, window_index, customers)


def test_interrupted_sweep_resumes_without_recomputation(
    tiny_dataset, tmp_path
):
    bundle = tiny_dataset.bundle
    config = ExperimentConfig(window_months=2, backend="batch")
    fresh = EvaluationProtocol(bundle, config=config)
    train, test = fresh.train_test_split(seed=0)
    n_cells = len(
        fresh.evaluation_windows(RFMModel(bundle.calendar, config=config))
    )
    assert n_cells >= 4
    kill_at = n_cells // 2

    # Uninterrupted reference, no checkpointing.
    reference = fresh.evaluate_window_scorer(
        RFMModel(bundle.calendar, config=config), "rfm", train, test
    )

    # First run dies at ~50% of the cells.
    scorer = _CountingRFM(bundle.calendar, config=config, fail_after=kill_at)
    interrupted = EvaluationProtocol(
        bundle, config=config, checkpoint_dir=tmp_path
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.evaluate_window_scorer(scorer, "rfm", train, test)
    journal = CheckpointJournal(tmp_path, schema="eval-protocol")
    assert journal.n_entries() == kill_at

    # The rerun computes only the unfinished cells...
    scorer = _CountingRFM(bundle.calendar, config=config)
    resumed = EvaluationProtocol(
        bundle, config=config, checkpoint_dir=tmp_path
    ).evaluate_window_scorer(scorer, "rfm", train, test)
    assert scorer.n_fits == n_cells - kill_at
    assert journal.n_entries() == n_cells
    # ...and the resumed series is bit-identical to the uninterrupted one.
    assert resumed == reference

    # A third run recomputes nothing at all.
    scorer = _CountingRFM(bundle.calendar, config=config, fail_after=0)
    replayed = EvaluationProtocol(
        bundle, config=config, checkpoint_dir=tmp_path
    ).evaluate_window_scorer(scorer, "rfm", train, test)
    assert replayed == reference


def test_corrupt_checkpoint_cell_detected(tiny_dataset, tmp_path):
    bundle = tiny_dataset.bundle
    config = ExperimentConfig(window_months=2, backend="batch")
    protocol = EvaluationProtocol(
        bundle, config=config, checkpoint_dir=tmp_path
    )
    train, test = protocol.train_test_split(seed=0)
    protocol.evaluate_window_scorer(
        RFMModel(bundle.calendar, config=config), "rfm", train, test
    )
    cells = sorted(tmp_path.glob("*.json"))
    assert cells
    tear_file(cells[0], keep_fraction=0.4)
    with pytest.raises(CheckpointError, match="corrupt or truncated"):
        EvaluationProtocol(
            bundle, config=config, checkpoint_dir=tmp_path
        ).evaluate_window_scorer(
            RFMModel(bundle.calendar, config=config), "rfm", train, test
        )


def test_checkpoint_dir_reused_across_configs_never_aliases(
    tiny_dataset, tmp_path
):
    bundle = tiny_dataset.bundle
    for alpha in (2.0, 4.0):
        config = ExperimentConfig(
            window_months=2, alpha=alpha, backend="batch"
        )
        protocol = EvaluationProtocol(
            bundle, config=config, checkpoint_dir=tmp_path
        )
        fit = StabilityModel(bundle.calendar, config=config).fit(
            protocol.frame()
        )
        series = protocol.evaluate_stability_model(fit)
        plain = EvaluationProtocol(
            bundle, config=config
        ).evaluate_stability_model(fit)
        assert series == plain


def test_checkpoint_dir_reused_across_splits_never_aliases(
    tiny_dataset, tmp_path
):
    # Same bundle, same config, different train/test split seeds: every
    # cell must be keyed to its own split, so the second run recomputes
    # instead of replaying the first run's AUROCs.
    bundle = tiny_dataset.bundle
    config = ExperimentConfig(window_months=2, backend="batch")
    n_cells = None
    for seed in (0, 1):
        protocol = EvaluationProtocol(
            bundle, config=config, checkpoint_dir=tmp_path
        )
        train, test = protocol.train_test_split(seed=seed)
        series = protocol.evaluate_window_scorer(
            RFMModel(bundle.calendar, config=config), "rfm", train, test
        )
        plain = EvaluationProtocol(bundle, config=config).evaluate_window_scorer(
            RFMModel(bundle.calendar, config=config), "rfm", train, test
        )
        assert series == plain
        n_cells = len(series.points) if n_cells is None else n_cells
    # Both runs journaled their own cells — nothing was aliased.
    journal = CheckpointJournal(tmp_path, schema="eval-protocol")
    assert journal.n_entries() == 2 * n_cells


def test_checkpoint_dir_reused_across_datasets_never_aliases(
    tiny_dataset, tmp_path
):
    # A journal directory reused against a differently-seeded dataset
    # must key cells to each bundle's content, not silently return the
    # first dataset's results.
    from repro.synth import ScenarioConfig, generate_dataset

    other = generate_dataset(ScenarioConfig(n_loyal=12, n_churners=12, seed=6))
    assert other.bundle.fingerprint() != tiny_dataset.bundle.fingerprint()

    config = ExperimentConfig(window_months=2, backend="batch")
    for dataset in (tiny_dataset, other):
        bundle = dataset.bundle
        protocol = EvaluationProtocol(
            bundle, config=config, checkpoint_dir=tmp_path
        )
        fit = StabilityModel(bundle.calendar, config=config).fit(
            protocol.frame()
        )
        series = protocol.evaluate_stability_model(fit)
        plain = EvaluationProtocol(
            bundle, config=config
        ).evaluate_stability_model(fit)
        assert series == plain
