"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

ARGS = ["--loyal", "8", "--churners", "8", "--seed", "2"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["figure2"])
        assert args.loyal == 150
        assert args.seed == 7


class TestCommands:
    def test_stats(self, capsys):
        assert main([*ARGS, "stats"]) == 0
        out = capsys.readouterr().out
        assert "customers" in out
        assert "6,000,000" in out

    def test_figure1(self, capsys):
        assert main([*ARGS, "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "stability AUROC" in out

    def test_figure1_checkpointed_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(
            [*ARGS, "figure1", "--retries", "1",
             "--checkpoint-dir", str(ckpt)]
        ) == 0
        first = capsys.readouterr().out
        cells = list(ckpt.glob("*.json"))
        assert cells
        # Rerun against the same journal: every cell loads, same output.
        assert main(
            [*ARGS, "figure1", "--retries", "1",
             "--checkpoint-dir", str(ckpt)]
        ) == 0
        assert capsys.readouterr().out == first

    def test_figure2(self, capsys):
        assert main([*ARGS, "figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Coffee" in out

    def test_tune(self, capsys):
        assert main([*ARGS, "tune", "--folds", "2"]) == 0
        out = capsys.readouterr().out
        assert "selected:" in out
        assert "paper selected window=2, alpha=2" in out

    def test_generate(self, tmp_path, capsys):
        out_dir = tmp_path / "dataset"
        assert main([*ARGS, "generate", "--out", str(out_dir)]) == 0
        assert (out_dir / "transactions.csv").exists()
        assert (out_dir / "cohorts.json").exists()
        assert (out_dir / "catalog.jsonl").exists()
        assert "wrote" in capsys.readouterr().out

    def test_explain_known_customer(self, capsys):
        assert main([*ARGS, "explain", "--customer", "12", "--window", "10"]) == 0
        out = capsys.readouterr().out
        assert "customer 12" in out
        assert "stability=" in out

    def test_explain_unknown_customer(self, capsys):
        assert main([*ARGS, "explain", "--customer", "999", "--window", "5"]) == 1
        assert "not in the dataset" in capsys.readouterr().err

    def test_delay(self, capsys):
        assert main([*ARGS, "delay", "--far", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "calibrated beta" in out
        assert "median delay" in out

    def test_compare(self, capsys):
        assert main([*ARGS, "compare", "--months", "20", "24"]) == 0
        out = capsys.readouterr().out
        assert "stability" in out
        assert "sequence" in out
        assert "lift@10%" in out

    def test_losses(self, capsys):
        assert main([*ARGS, "losses", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "loss events across" in out
        assert "abrupt" in out

    def test_report(self, capsys):
        assert main([*ARGS, "report", "--customer", "12"]) == 0
        out = capsys.readouterr().out
        assert "customer 12" in out
        assert "stability trajectory" in out

    def test_report_unknown_customer(self, capsys):
        assert main([*ARGS, "report", "--customer", "999"]) == 1
        assert "not in the dataset" in capsys.readouterr().err

    def test_quality_generated(self, capsys):
        assert main([*ARGS, "quality"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_quality_from_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        main([*ARGS, "generate", "--out", str(out_dir)])
        capsys.readouterr()
        assert main([*ARGS, "quality", "--log", str(out_dir / "transactions.csv")]) == 0
        assert "customers:" in capsys.readouterr().out

    def test_quality_lenient_quarantines_bad_rows(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        main([*ARGS, "generate", "--out", str(out_dir)])
        capsys.readouterr()
        csv_path = out_dir / "transactions.csv"
        lines = csv_path.read_text().splitlines()
        lines.insert(2, "not,a,valid,row")
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(
            [*ARGS, "quality", "--log", str(csv_path), "--lenient"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "verdict:" in out

    def test_export_csv(self, tmp_path, capsys):
        out = tmp_path / "figure1.csv"
        assert main([*ARGS, "export", "--out", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("month,stability_auroc,rfm_auroc")

    def test_export_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "figure1.json"
        assert main([*ARGS, "export", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["onset_month"] == 18
        assert len(payload["month"]) == 7

    def test_bench(self, tmp_path, capsys):
        import json

        out = tmp_path / "telemetry.json"
        assert main(
            [
                *ARGS,
                "bench",
                "--sizes", "4",
                "--repeat", "1",
                "--json", str(out),
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "ms/customer" in stdout
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "stability_fit_scaling"
        assert payload["schema_version"] == 3
        assert payload["results"][0]["customers"] == 8
        assert payload["results"][0]["fit_seconds"] > 0

    def test_bench_json_keeps_the_slab_grid_block(self, tmp_path):
        import json

        # bench_slab_grid.py merges its block into the same artifact.
        out = tmp_path / "BENCH_scaling.json"
        slab_grid = {"scenario": "slab_grid", "cells": [{"customers": 1000}]}
        out.write_text(json.dumps({"slab_grid": slab_grid}))
        assert main(
            [*ARGS, "bench", "--sizes", "4", "--repeat", "1", "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["slab_grid"] == slab_grid
        assert payload["benchmark"] == "stability_fit_scaling"
        assert payload["results"][0]["customers"] == 8

    def test_bench_single_backend(self, capsys):
        # The bench times the one kernel: a fit-time column, no
        # per-backend columns and no speedup ratio.
        assert main([*ARGS, "bench", "--sizes", "4", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "fit s" in out
        assert "batch s" not in out and "incremental s" not in out
        assert "speedup" not in out

    def test_bench_telemetry_overhead_section(self, tmp_path, capsys):
        import json

        out = tmp_path / "telemetry.json"
        assert main(
            [*ARGS, "bench", "--sizes", "4",
             "--repeat", "1", "--telemetry-size", "8", "--json", str(out)]
        ) == 0
        assert "% overhead" in capsys.readouterr().out
        overhead = json.loads(out.read_text())["telemetry_overhead"]
        assert overhead["scenario"] == "telemetry_overhead"
        assert overhead["spans_per_sweep"] > 0
        assert overhead["disabled_seconds"] > 0
        assert overhead["recording_seconds"] > 0

    def test_generated_dataset_round_trips(self, tmp_path):
        from repro.data.io import read_cohorts_json, read_log_csv

        out_dir = tmp_path / "dataset"
        main([*ARGS, "generate", "--out", str(out_dir)])
        log = read_log_csv(out_dir / "transactions.csv")
        cohorts = read_cohorts_json(out_dir / "cohorts.json")
        assert log.n_customers == 16
        assert cohorts.n_loyal == 8


class TestTelemetry:
    def test_trace_and_metrics_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["--trace-out", str(trace), "--metrics-out", str(metrics),
             *ARGS, "figure1"]
        ) == 0
        captured = capsys.readouterr()
        assert f"wrote trace to {trace}" in captured.err
        assert f"wrote metrics to {metrics}" in captured.err

        from repro.obs import read_trace_jsonl

        names = {r.name for r in read_trace_jsonl(trace)}
        assert "engine.fit" in names
        assert "eval.cell" in names

        import json

        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro-metrics"
        assert payload["counters"]["sweep.cells_computed"] > 0

    def test_telemetry_does_not_change_output(self, tmp_path, capsys):
        assert main([*ARGS, "figure1"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["--trace-out", str(tmp_path / "t.jsonl"), *ARGS, "figure1"]
        ) == 0
        assert capsys.readouterr().out == plain

    def test_obs_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["--trace-out", str(trace), *ARGS, "figure1"])
        capsys.readouterr()
        assert main([*ARGS, "obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        assert "engine.fit" in out
        assert "p95 s" in out

    def test_obs_summarize_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{torn json\n")
        assert main([*ARGS, "obs", "summarize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("obs summarize: cannot read trace:")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_obs_summarize_missing_trace(self, tmp_path, capsys):
        assert main([*ARGS, "obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("obs summarize: cannot read trace:")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_obs_tail_renders_one_frame(self, tmp_path, capsys):
        stream = tmp_path / "metrics-stream.jsonl"
        stream.write_text(
            json.dumps(
                {
                    "schema": "repro-metrics-window",
                    "version": 1,
                    "ts": 1.0,
                    "window_s": 60.0,
                    "span_s": 5.0,
                    "samples": 1,
                    "rates": {"serve.ingested": 10.0},
                    "windows": {},
                    "gauges": {"serve.lag_days": 2.0},
                    "counters": {"serve.ingested": 50},
                }
            )
            + "\n"
        )
        assert main([*ARGS, "obs", "tail", str(stream)]) == 0
        captured = capsys.readouterr()
        assert "repro live telemetry" in captured.out
        assert "serve.lag_days" in captured.out
        assert "rendered 1 frame(s)" in captured.err

    def test_obs_tail_missing_stream_exits_2(self, tmp_path, capsys):
        assert main([*ARGS, "obs", "tail", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("obs tail: cannot read stream:")
        assert err.count("\n") == 1

    def test_obs_tail_corrupt_stream_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{torn\n" + '{"schema": "repro-metrics-window"}\n')
        assert main([*ARGS, "obs", "tail", str(bad)]) == 2
        assert "cannot read stream" in capsys.readouterr().err

    def test_checkpointed_run_writes_a_manifest(self, tmp_path, capsys):
        from repro.obs import read_manifest

        ckpt = tmp_path / "ckpt"
        assert main(
            ["--trace-out", str(tmp_path / "t.jsonl"),
             *ARGS, "figure1", "--checkpoint-dir", str(ckpt)]
        ) == 0
        assert "wrote run manifest" in capsys.readouterr().out
        manifest = read_manifest(ckpt)
        assert manifest.experiment == "figure1"
        assert manifest.seed == 2
        assert manifest.config["window_months"] == 2
        assert manifest.dataset_fingerprint
        assert manifest.spans  # tracing was on, so the rollup is embedded

    def test_verbose_surfaces_progress_heartbeats(self, tmp_path, capsys):
        assert main(["-v", *ARGS, "figure1"]) == 0
        err = capsys.readouterr().err
        assert "eval stability" in err
        assert "cells" in err

    def test_logging_reconfiguration_is_idempotent(self, capsys):
        import logging

        from repro.cli import _LOG_HANDLER_FLAG

        root = logging.getLogger("repro")
        try:
            main(["-v", *ARGS, "stats"])
            main(["-v", *ARGS, "stats"])
            tagged = [
                h for h in root.handlers
                if getattr(h, _LOG_HANDLER_FLAG, False)
            ]
            assert len(tagged) == 1
            # Dropping -v removes the handler again.
            main([*ARGS, "stats"])
            assert not any(
                getattr(h, _LOG_HANDLER_FLAG, False) for h in root.handlers
            )
        finally:
            for handler in list(root.handlers):
                if getattr(handler, _LOG_HANDLER_FLAG, False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
            capsys.readouterr()


class TestRecordAndServe:
    """The ``record`` and ``serve`` subcommands (repro.serve layer)."""

    STREAM_ARGS = [
        "--loyal", "8", "--churners", "8", "--seed", "2",
    ]
    RECORD = ["record", "--months", "10", "--onset-month", "6"]

    @pytest.fixture()
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        assert main([*self.STREAM_ARGS, *self.RECORD, "--out", str(path)]) == 0
        return path

    def test_record_reports_fingerprint(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        assert main([*self.STREAM_ARGS, *self.RECORD, "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert "fingerprint" in out
        assert path.exists()

    def test_serve_help_mentions_key_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--checkpoint-dir", "--batch-size", "--n-shards",
            "--status-port", "--no-api", "--parity-check",
        ):
            assert flag in out

    def test_serve_with_parity_check(self, stream_file, tmp_path, capsys):
        assert main(
            ["serve", str(stream_file),
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--batch-size", "120", "--n-shards", "2",
             "--no-api", "--parity-check"]
        ) == 0
        out = capsys.readouterr().out
        assert "parity OK" in out
        assert "checkpointed" in out
        assert "score fingerprint" in out

    def test_serve_interrupted_exits_3_then_resumes(
        self, stream_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        base = ["serve", str(stream_file), "--checkpoint-dir", str(ckpt),
                "--batch-size", "120", "--no-api"]
        assert main([*base, "--max-batches", "2"]) == 3
        captured = capsys.readouterr()
        assert "rerun with the same --checkpoint-dir" in captured.err
        assert main([*base, "--parity-check"]) == 0
        assert "[resumed]" in capsys.readouterr().out

    def test_serve_missing_stream(self, tmp_path, capsys):
        assert main(
            ["serve", str(tmp_path / "nope.jsonl"),
             "--checkpoint-dir", str(tmp_path / "ckpt"), "--no-api"]
        ) == 1
        assert "not found" in capsys.readouterr().err

    def test_serve_status_api_binds_ephemeral_port(
        self, stream_file, tmp_path, capsys
    ):
        assert main(
            ["serve", str(stream_file),
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--batch-size", "120"]
        ) == 0
        assert "status API on http://127.0.0.1:" in capsys.readouterr().err

    def test_serve_requires_checkpoint_dir(self, stream_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(stream_file)])
        assert excinfo.value.code == 2


class TestSoak:
    """The ``soak`` subcommand (repro.soak chaos harness)."""

    STREAM_ARGS = ["--loyal", "8", "--churners", "8", "--seed", "2"]
    RECORD = ["record", "--months", "10", "--onset-month", "6"]

    @pytest.fixture()
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        assert main([*self.STREAM_ARGS, *self.RECORD, "--out", str(path)]) == 0
        return path

    def test_soak_help_mentions_key_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["soak", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--chaos", "--duration", "--rate", "--slo-p99-ms",
            "--workdir", "--bench-out", "--min-throughput",
        ):
            assert flag in out

    def test_fault_free_soak_passes_and_writes_bench(
        self, stream_file, tmp_path, capsys
    ):
        bench = tmp_path / "BENCH_serve.json"
        assert main(
            ["soak", str(stream_file), "--workdir", str(tmp_path / "run"),
             "--batch-size", "120", "--n-shards", "1",
             "--slo-p99-ms", "60000", "--bench-out", str(bench)]
        ) == 0
        captured = capsys.readouterr()
        assert "soak: PASSED" in captured.out
        assert "parity vs offline sweep: ok" in captured.out
        payload = json.loads(bench.read_text())
        assert payload["soak"]["passed"] is True
        assert payload["soak"]["slo"]["p99"]["ok"] is True

    def test_chaos_smoke_injects_every_site(
        self, stream_file, tmp_path, capsys
    ):
        bench = tmp_path / "BENCH_serve.json"
        assert main(
            ["soak", str(stream_file), "--workdir", str(tmp_path / "run"),
             "--chaos", "smoke", "--batch-size", "120",
             "--n-shards", "2", "--parallel", "--slow-seconds", "0.3",
             "--slo-p99-ms", "120000", "--bench-out", str(bench)]
        ) == 0
        out = capsys.readouterr().out
        for site in (
            "tear_cursor", "worker_crash", "slow_shard",
            "kill_resume", "ckpt_io", "tear_state",
        ):
            assert site in out
        payload = json.loads(bench.read_text())
        assert payload["soak"]["faults_injected"] == 6

    def test_chaos_smoke_without_parallel_is_config_error(
        self, stream_file, tmp_path, capsys
    ):
        assert main(
            ["soak", str(stream_file), "--workdir", str(tmp_path / "run"),
             "--chaos", "smoke", "--batch-size", "120"]
        ) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_slo_violation_exits_1(self, stream_file, tmp_path, capsys):
        assert main(
            ["soak", str(stream_file), "--workdir", str(tmp_path / "run"),
             "--batch-size", "120", "--slo-p99-ms", "0.000001"]
        ) == 1
        out = capsys.readouterr().out
        assert "soak: FAILED" in out
        assert "SLO" in out

    def test_soak_missing_stream(self, tmp_path, capsys):
        assert main(
            ["soak", str(tmp_path / "nope.jsonl"),
             "--workdir", str(tmp_path / "run")]
        ) == 1
        assert "not found" in capsys.readouterr().err
