"""Tests for the chaos/soak harness (repro.soak.harness).

The expensive full-site chaos loop (parallel pool, worker crash, slow
shard) runs once; the cheaper invariants — fault-free soaks, serial
chaos over the process-level sites, schedule validation, bench artifact
— use serial plans so the suite stays fast.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, use_metrics
from repro.obs import metrics as obs_metrics
from repro.serve import ServeCheckpoint
from repro.soak import (
    ChaosSchedule,
    SoakPlan,
    render_soak,
    run_soak,
    stream_shape,
    write_bench,
)

#: Batch size chosen so the small fixture stream yields a handful of
#: batches (enough room for multi-site schedules).
BATCH = 120


@pytest.fixture(scope="module")
def shape(soak_stream):
    return stream_shape(soak_stream, BATCH)


class TestStreamShape:
    def test_matches_served_batches(self, soak_stream, shape):
        n_batches, n_baskets = shape
        assert n_batches >= 6
        assert n_baskets > 0

    def test_batch_size_validated(self, soak_stream):
        with pytest.raises(ConfigError, match="batch_size"):
            stream_shape(soak_stream, 0)


class TestFaultFreeSoak:
    def test_loops_mode_passes_with_parity(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(mode="loops", loops=2, batch_size=BATCH)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, None, config=soak_config
        )
        assert report.passed
        assert report.violations == ()
        assert len(report.loops) == 2
        assert all(loop.parity_ok for loop in report.loops)
        assert all(
            loop.fingerprint == report.reference_fingerprint
            for loop in report.loops
        )
        assert report.faults_injected == 0
        # One serve leg per loop, each a full pass.
        assert report.legs == 2

    def test_latency_histogram_and_throughput_populated(
        self, soak_stream, tmp_path, soak_config, shape
    ):
        n_batches, n_baskets = shape
        plan = SoakPlan(batch_size=BATCH)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, None, config=soak_config
        )
        # One serve.batch_s observation per data batch (the finish seal
        # closes windows in-process, outside the batch stage).
        assert report.latency_ms["count"] == pytest.approx(n_batches)
        assert report.latency_ms["p50"] <= report.latency_ms["p95"]
        assert report.latency_ms["p95"] <= report.latency_ms["p99"]
        assert report.baskets_played == n_baskets
        assert report.throughput_baskets_s > 0

    def test_duration_mode_runs_at_least_one_loop(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(
            mode="duration", duration_s=0.001, batch_size=BATCH
        )
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, None, config=soak_config
        )
        assert len(report.loops) >= 1
        assert report.passed

    def test_rate_cap_slows_replay(self, soak_stream, tmp_path, soak_config):
        # Cap low enough that pacing dominates: ~BATCH baskets per batch
        # at 2*BATCH baskets/s is ~0.5s per batch after the first.
        plan = SoakPlan(batch_size=BATCH, rate=2.0 * BATCH)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, None, config=soak_config
        )
        assert report.throughput_baskets_s <= 2.5 * BATCH
        assert report.passed

    def test_slo_violation_fails_report_without_raising(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(batch_size=BATCH, slo_p99_ms=1e-6)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, None, config=soak_config
        )
        assert not report.passed
        assert any("SLO" in violation for violation in report.violations)
        assert report.slo["p99"]["ok"] is False

    def test_metrics_merge_into_outer_registry(
        self, soak_stream, tmp_path, soak_config
    ):
        registry = MetricsRegistry()
        plan = SoakPlan(batch_size=BATCH)
        with use_metrics(registry):
            run_soak(
                soak_stream, tmp_path / "soak", plan, None, config=soak_config
            )
        assert registry.counter_value(obs_metrics.SOAK_LOOPS) == 1
        assert registry.counter_value(obs_metrics.SERVE_INGESTED) > 0


class TestScheduleFit:
    def test_cell_beyond_stream_rejected(
        self, soak_stream, tmp_path, soak_config, shape
    ):
        n_batches, _ = shape
        plan = SoakPlan(batch_size=BATCH)
        chaos = ChaosSchedule(kills=(n_batches + 1,))
        with pytest.raises(ConfigError, match="only yields"):
            run_soak(
                soak_stream, tmp_path / "soak", plan, chaos,
                config=soak_config,
            )

    def test_worker_faults_need_parallel_pool(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(batch_size=BATCH)  # serial
        chaos = ChaosSchedule(crashes=(2,))
        with pytest.raises(ConfigError, match="parallel"):
            run_soak(
                soak_stream, tmp_path / "soak", plan, chaos,
                config=soak_config,
            )

    def test_io_faults_need_retry_budget(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(batch_size=BATCH, checkpoint_io_retries=0)
        chaos = ChaosSchedule(io_errors=((2, errno.ENOSPC),))
        with pytest.raises(ConfigError, match="checkpoint_io_retries"):
            run_soak(
                soak_stream, tmp_path / "soak", plan, chaos,
                config=soak_config,
            )


class TestSerialChaos:
    """The process-level sites (kill, tears, ckpt I/O) need no pool."""

    def test_kill_tear_and_io_faults_recover_with_parity(
        self, soak_stream, tmp_path, soak_config
    ):
        chaos = ChaosSchedule(
            torn_cursors=(1,),
            kills=(3,),
            io_errors=((4, errno.EACCES),),
            torn_state=(5,),
        )
        plan = SoakPlan(batch_size=BATCH)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, chaos, config=soak_config
        )
        assert report.passed, report.violations
        assert report.faults_injected == 4
        outcomes = {f.site: f for f in report.loops[0].faults}
        assert outcomes["tear_cursor"].rework_batches == 1
        assert outcomes["kill_resume"].rework_batches == 1
        assert outcomes["ckpt_io"].rework_batches == 0
        # The torn state dir at batch 5 replays its committed prefix.
        assert outcomes["tear_state"].rework_batches == 5
        assert report.loops[0].parity_ok

    def test_bench_artifact_round_trips(
        self, soak_stream, tmp_path, soak_config
    ):
        chaos = ChaosSchedule(kills=(2,))
        plan = SoakPlan(batch_size=BATCH, slo_p99_ms=60_000.0)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, chaos, config=soak_config
        )
        bench = tmp_path / "BENCH_serve.json"
        merged = write_bench(report, bench)
        on_disk = json.loads(bench.read_text())
        assert on_disk == merged
        soak = on_disk["soak"]
        assert soak["passed"] is True
        assert soak["faults_injected"] == 1
        assert soak["slo"]["p99"]["ok"] is True
        assert soak["chaos"]["cells"] == [
            {"batch": 2, "site": "kill_resume"}
        ]
        # Merging preserves foreign top-level scenarios.
        merged2 = write_bench(report, bench)
        assert set(merged2) == {"soak"}

    def test_render_soak_mentions_faults_and_slos(
        self, soak_stream, tmp_path, soak_config
    ):
        chaos = ChaosSchedule(kills=(2,))
        plan = SoakPlan(batch_size=BATCH, slo_p99_ms=60_000.0)
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, chaos, config=soak_config
        )
        text = render_soak(report)
        assert "PASSED" in text
        assert "kill_resume" in text
        assert "SLO p99" in text
        assert "parity vs offline sweep: ok" in text

    def test_keep_checkpoints_retains_loop_dirs(
        self, soak_stream, tmp_path, soak_config
    ):
        plan = SoakPlan(batch_size=BATCH)
        report = run_soak(
            soak_stream,
            tmp_path / "soak",
            plan,
            None,
            config=soak_config,
            keep_checkpoints=True,
        )
        assert ServeCheckpoint(tmp_path / "soak" / "loop-000").cursor_path.exists()
        assert report.passed
        # And without the flag the scratch dirs are pruned.
        report2 = run_soak(
            soak_stream, tmp_path / "soak2", plan, None, config=soak_config
        )
        assert not (tmp_path / "soak2" / "loop-000").exists()
        assert report2.passed


class TestParallelChaos:
    def test_all_sites_inject_and_parity_holds(
        self, soak_stream, tmp_path, soak_config, shape
    ):
        n_batches, _ = shape
        chaos = ChaosSchedule.smoke(n_batches, slow_seconds=0.3)
        plan = SoakPlan(
            batch_size=BATCH, n_shards=2, parallel=True,
            slo_p99_ms=120_000.0,
        )
        report = run_soak(
            soak_stream, tmp_path / "soak", plan, chaos, config=soak_config
        )
        assert report.passed, report.violations
        assert report.faults_injected == chaos.n_faults == 6
        sites = {f.site for f in report.loops[0].faults}
        assert sites == set(chaos.sites())
        crash_class = (
            "worker_crash", "slow_shard", "kill_resume", "ckpt_io"
        )
        for fault in report.loops[0].faults:
            if fault.site in crash_class:
                assert fault.rework_batches <= 1, fault
        assert report.loops[0].parity_ok
