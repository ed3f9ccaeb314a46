"""Command-line interface.

Subcommands
-----------
``generate``   Generate a synthetic dataset and write it to disk.
``figure1``    Run the Figure 1 experiment (AUROC curves) and print it.
``figure2``    Run the Figure 2 case study and print it.
``stats``      Print the dataset-statistics table (E3).
``tune``       Run the 5-fold CV parameter search (E4).
``explain``    Explain one customer's stability at one window.
``bench``      Time the StabilityModel fit and emit perf telemetry.
``obs``        Summarize a trace JSONL emitted via ``--trace-out``.
``lint``       Statically check the determinism/atomicity invariants.
``record``     Record a synthetic scenario as a replayable basket stream.
``serve``      Serve a recorded stream: score, checkpoint, status API.
``soak``       Chaos/soak the serving layer under fault schedules + SLOs.

Global telemetry flags (before the subcommand): ``--trace-out`` writes
the command's span trace as JSONL, ``--metrics-out`` writes the metrics
registry as JSON, and ``-v``/``-vv`` surface the library's INFO/DEBUG
logs (progress heartbeats, executor waves, checkpoint resume summaries)
on stderr.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.tuning import tune_stability_model
from repro.data.io import write_cohorts_json, write_log_csv
from repro.eval.figure1 import run_figure1
from repro.eval.figure2 import run_figure2
from repro.eval.reporting import (
    format_table,
    render_dataset_stats,
    render_figure1,
    render_figure2,
)
from repro.eval.tables import dataset_stats
from repro.obs import TelemetrySession
from repro.synth.scenarios import paper_scenario

__all__ = ["main", "build_parser"]

#: Marker the idempotent logging setup tags its handler with.
_LOG_HANDLER_FLAG = "_repro_cli_handler"


def _configure_logging(verbosity: int) -> None:
    """Point the ``repro`` logger at stderr at the requested level.

    Idempotent: re-entry (tests calling :func:`main` repeatedly) adjusts
    the existing handler's level instead of stacking duplicates.
    """
    root = logging.getLogger("repro")
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO
        if verbosity == 1
        else logging.DEBUG
    )
    handler = next(
        (h for h in root.handlers if getattr(h, _LOG_HANDLER_FLAG, False)), None
    )
    if verbosity <= 0:
        if handler is not None:
            root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
        return
    if handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        setattr(handler, _LOG_HANDLER_FLAG, True)
        root.addHandler(handler)
    handler.setLevel(level)
    root.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-attrition",
        description=(
            "Reproduction of the EDBT 2016 customer-stability attrition model"
        ),
    )
    parser.add_argument(
        "--loyal", type=int, default=150, help="loyal customers to simulate"
    )
    parser.add_argument(
        "--churners", type=int, default=150, help="defecting customers to simulate"
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="surface library logs on stderr (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="record a span trace and write it here as JSONL",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="record the metrics registry and write it here as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument(
        "--out", type=Path, required=True, help="output directory"
    )

    figure1 = sub.add_parser("figure1", help="run the Figure 1 experiment")
    figure1.add_argument("--window-months", type=int, default=2)
    figure1.add_argument("--alpha", type=float, default=2.0)
    figure1.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "pool retry waves before a failed shard degrades to the "
            "in-process fallback (with --n-jobs above 1)"
        ),
    )
    figure1.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="worker processes for the fit (-1 = all cores)",
    )
    figure1.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "journal directory making the sweep resumable: finished "
            "AUROC cells are written atomically and skipped on rerun"
        ),
    )

    sub.add_parser("figure2", help="run the Figure 2 case study")
    sub.add_parser("stats", help="print dataset statistics (E3)")

    tune = sub.add_parser("tune", help="run the CV parameter search (E4)")
    tune.add_argument("--folds", type=int, default=5)

    explain = sub.add_parser("explain", help="explain one customer at one window")
    explain.add_argument("--customer", type=int, required=True)
    explain.add_argument("--window", type=int, required=True)
    explain.add_argument("--top-k", type=int, default=5)

    delay = sub.add_parser(
        "delay", help="detection-delay analysis at a false-alarm budget"
    )
    delay.add_argument(
        "--far", type=float, default=0.1, help="target loyal false-alarm rate"
    )

    compare = sub.add_parser(
        "compare", help="compare all models (AUROC + lift) at key months"
    )
    compare.add_argument(
        "--months", type=int, nargs="+", default=[20, 22, 24]
    )
    compare.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "journal directory making the comparison resumable: finished "
            "(model, month) cells are written atomically and skipped on rerun"
        ),
    )

    losses = sub.add_parser(
        "losses", help="population loss characterization (paper's future work)"
    )
    losses.add_argument("--min-share", type=float, default=0.03)
    losses.add_argument("--top", type=int, default=10)

    report = sub.add_parser("report", help="full dossier for one customer")
    report.add_argument("--customer", type=int, required=True)
    report.add_argument("--top-k", type=int, default=3)

    quality = sub.add_parser("quality", help="profile a transaction CSV")
    quality.add_argument("--log", type=Path, help="CSV to profile (default: generated)")
    quality.add_argument(
        "--lenient",
        action="store_true",
        help=(
            "quarantine malformed rows instead of aborting and print "
            "the quarantine report (only with --log)"
        ),
    )

    export = sub.add_parser("export", help="export Figure 1 series to CSV/JSON")
    export.add_argument("--out", type=Path, required=True, help="output file (.csv or .json)")

    bench = sub.add_parser(
        "bench", help="benchmark the StabilityModel fit (perf telemetry)"
    )
    bench.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[25, 50, 100, 200],
        help="per-cohort sizes; total customers is twice each value",
    )
    bench.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    bench.add_argument(
        "--n-jobs", type=int, default=1, help="worker processes for the fit"
    )
    bench.add_argument(
        "--json", type=Path, default=None, help="write machine-readable telemetry here"
    )
    bench.add_argument(
        "--protocol-size",
        type=int,
        default=200,
        help=(
            "per-cohort size for the eval-protocol ROC-sweep scenario "
            "(0 disables it)"
        ),
    )
    bench.add_argument(
        "--telemetry-size",
        type=int,
        default=200,
        help=(
            "per-cohort size for the telemetry-overhead scenario "
            "(0 disables it)"
        ),
    )
    bench.add_argument(
        "--slab-sizes",
        type=int,
        nargs="*",
        default=None,
        help=(
            "total-customer sizes for the out-of-core slab grid "
            "(mmap vs in-RAM; omit to skip, e.g. --slab-sizes 1000 10000 100000)"
        ),
    )
    bench.add_argument(
        "--slab-million",
        action="store_true",
        help="append a 1,000,000-customer cell to the slab grid (slow)",
    )

    lint = sub.add_parser(
        "lint",
        help=(
            "statically check the determinism/atomicity/typing invariants "
            "(AST rules DET/IO/ERR/FLT/OBS/TYP, DESIGN.md §8)"
        ),
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    record = sub.add_parser(
        "record",
        help="record a synthetic scenario as a replayable basket stream",
    )
    record.add_argument(
        "--out", type=Path, required=True, help="stream file to write (JSONL)"
    )
    record.add_argument(
        "--months", type=int, default=28, help="study length in months"
    )
    record.add_argument(
        "--onset-month", type=int, default=18, help="mean attrition onset month"
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "serve a recorded stream: sharded scoring, per-batch durable "
            "checkpoints, status/score API"
        ),
    )
    serve.add_argument(
        "stream", type=Path, help="recorded stream file (see `record`)"
    )
    serve.add_argument(
        "--checkpoint-dir",
        type=Path,
        required=True,
        help=(
            "durable run directory (cursor + per-shard state + manifest); "
            "an existing valid checkpoint there is resumed"
        ),
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="checkpoint after at least this many baskets (whole days)",
    )
    serve.add_argument(
        "--n-shards", type=int, default=1, help="customer shard count"
    )
    serve.add_argument("--window-months", type=int, default=2)
    serve.add_argument("--alpha", type=float, default=2.0)
    serve.add_argument(
        "--beta", type=float, default=0.5, help="alarm threshold on stability"
    )
    serve.add_argument(
        "--first-alarm-window",
        type=int,
        default=0,
        help="suppress alarms before this window index",
    )
    serve.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop (resumable) after this many batches this run",
    )
    serve.add_argument(
        "--status-port",
        type=int,
        default=0,
        help="status API port (0 = ephemeral, printed on stderr)",
    )
    serve.add_argument(
        "--no-api",
        action="store_true",
        help="do not start the HTTP status API",
    )
    serve.add_argument(
        "--parity-check",
        action="store_true",
        help=(
            "after a finished run, recompute the offline batch sweep and "
            "fail (exit 1) unless the score tables are bit-identical"
        ),
    )
    serve.add_argument(
        "--metrics-stream-out",
        type=Path,
        default=None,
        help=(
            "append live window snapshots (JSONL) here — the feed "
            "`obs tail` follows"
        ),
    )
    serve.add_argument(
        "--flight-dir",
        type=Path,
        default=None,
        help=(
            "flight-recorder output directory: a cursor fallback flushes "
            "the recent-telemetry ring to flight-<commit>.jsonl there"
        ),
    )
    serve.add_argument(
        "--publish-interval",
        type=float,
        default=2.0,
        help="minimum seconds between live metrics publishes",
    )

    soak = sub.add_parser(
        "soak",
        help=(
            "chaos/soak the serving layer: fault-scheduled load replay "
            "with enforced latency SLOs"
        ),
    )
    soak.add_argument(
        "stream", type=Path, help="recorded stream file (see `record`)"
    )
    soak.add_argument(
        "--workdir",
        type=Path,
        required=True,
        help="scratch directory for per-loop checkpoint dirs",
    )
    soak.add_argument(
        "--chaos",
        choices=("none", "smoke"),
        default="none",
        help=(
            "fault schedule: 'smoke' injects one fault per site "
            "(torn cursor, kill/resume, checkpoint I/O error, torn state) "
            "at batches 1..4; 'none' soaks fault-free"
        ),
    )
    soak.add_argument(
        "--loops",
        type=int,
        default=1,
        help="full stream replays (ignored with --duration)",
    )
    soak.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soak by wall clock instead of loop count",
    )
    soak.add_argument(
        "--rate",
        type=float,
        default=None,
        help="cap ingest at this many baskets/second (default unthrottled)",
    )
    soak.add_argument("--batch-size", type=int, default=256)
    soak.add_argument("--n-shards", type=int, default=2)
    soak.add_argument("--slo-p50-ms", type=float, default=None)
    soak.add_argument("--slo-p95-ms", type=float, default=None)
    soak.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        help="fail the soak if p99 per-batch score latency exceeds this",
    )
    soak.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        help="fail the soak below this many baskets/second overall",
    )
    soak.add_argument(
        "--bench-out",
        type=Path,
        default=None,
        help="merge the soak scenario into this BENCH_serve.json artifact",
    )
    soak.add_argument(
        "--keep-checkpoints",
        action="store_true",
        help="keep per-loop checkpoint dirs instead of pruning them",
    )
    soak.add_argument("--window-months", type=int, default=2)
    soak.add_argument("--alpha", type=float, default=2.0)
    soak.add_argument("--beta", type=float, default=0.5)
    soak.add_argument("--first-alarm-window", type=int, default=0)
    soak.add_argument(
        "--status-port",
        type=int,
        default=None,
        help=(
            "bind the status API (with /metrics) on this port for the "
            "duration of the soak (0 = ephemeral; default: no API)"
        ),
    )
    soak.add_argument(
        "--flight-dir",
        type=Path,
        default=None,
        help=(
            "flight-recorder output directory (default: <workdir>/flight); "
            "every injected fault and SLO violation flushes an artifact"
        ),
    )
    soak.add_argument(
        "--metrics-stream-out",
        type=Path,
        default=None,
        help="append live window snapshots (JSONL) here for `obs tail`",
    )
    soak.add_argument(
        "--publish-interval",
        type=float,
        default=1.0,
        help="minimum seconds between live metrics publishes",
    )
    soak.add_argument(
        "--pin-telemetry-overhead",
        action="store_true",
        help=(
            "also measure the live plane's serve overhead (off vs on, "
            "bit-identical scores required) and merge the verdict into "
            "--bench-out under 'telemetry_plane'"
        ),
    )

    obs = sub.add_parser(
        "obs", help="inspect telemetry artifacts (traces, manifests)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="aggregate a trace JSONL into a per-span table"
    )
    summarize.add_argument(
        "trace", type=Path, help="trace JSONL written via --trace-out"
    )
    tail = obs_sub.add_parser(
        "tail",
        help=(
            "live terminal dashboard over a metrics snapshot stream "
            "(see serve/soak --metrics-stream-out)"
        ),
    )
    tail.add_argument(
        "stream", type=Path, help="window-snapshot JSONL being appended"
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep redrawing as new snapshots arrive (Ctrl-C to stop)",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between redraws in --follow mode",
    )
    tail.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after this many rendered frames (tests/CI)",
    )
    return parser


def _dataset(args: argparse.Namespace):
    return paper_scenario(
        n_loyal=args.loyal, n_churners=args.churners, seed=args.seed
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    args.out.mkdir(parents=True, exist_ok=True)
    write_log_csv(dataset.log, args.out / "transactions.csv")
    write_cohorts_json(dataset.cohorts, args.out / "cohorts.json")
    from repro.data.io import write_catalog_jsonl

    write_catalog_jsonl(dataset.catalog, args.out / "catalog.jsonl")
    print(f"wrote {dataset.log.n_baskets} receipts for "
          f"{dataset.log.n_customers} customers to {args.out}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    config = ExperimentConfig(
        window_months=args.window_months,
        alpha=args.alpha,
        retries=args.retries,
        n_jobs=args.n_jobs,
    )
    result = run_figure1(
        dataset.bundle, config=config, checkpoint_dir=args.checkpoint_dir
    )
    if args.checkpoint_dir is not None:
        from repro.obs import build_manifest, get_metrics, get_tracer, write_manifest

        manifest = build_manifest(
            "figure1",
            config=config,
            dataset_fingerprint=dataset.bundle.fingerprint(),
            seed=args.seed,
            execution=result.execution,
            tracer=get_tracer(),
            metrics=get_metrics(),
        )
        path = write_manifest(args.checkpoint_dir, manifest)
        print(f"wrote run manifest to {path}")
    print(render_figure1(result))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    del args
    print(render_figure2(run_figure2()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    print(render_dataset_stats(dataset_stats(dataset.bundle)))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    outcome = tune_stability_model(
        dataset.log, dataset.cohorts, dataset.calendar, n_splits=args.folds
    )
    rows = [
        (
            f"w={p['window_months']}mo alpha={p['alpha']:g}",
            f"{score:.3f}",
        )
        for p, score, _ in sorted(
            outcome.search.table, key=lambda e: -e[1]
        )
    ]
    print(format_table(("configuration", "mean CV AUROC"), rows))
    print(
        f"\nselected: window={outcome.best_window_months} months, "
        f"alpha={outcome.best_alpha:g} (AUROC {outcome.best_score:.3f}); "
        f"paper selected window=2, alpha=2"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    if args.customer not in dataset.log:
        print(f"customer {args.customer} not in the dataset", file=sys.stderr)
        return 1
    model = StabilityModel(dataset.calendar).fit(dataset.log, [args.customer])
    explanation = model.explain(args.customer, args.window, top_k=args.top_k)
    print(
        f"customer {args.customer}, window {args.window} "
        f"(ends month {model.window_month(args.window)}): "
        f"stability={explanation.stability:.3f}"
    )
    rows = [
        (
            dataset.catalog.segment(item.item).name,
            f"{item.significance:.3f}",
            f"{item.share:.1%}",
        )
        for item in explanation.missing
    ]
    if rows:
        print(format_table(("missing segment", "significance", "share"), rows))
    else:
        print("no significant segment is missing in this window")
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    from repro.eval.delay import detection_delay
    from repro.eval.reporting import render_delay

    dataset = _dataset(args)
    analysis = detection_delay(dataset.bundle, target_false_alarm_rate=args.far)
    print(render_delay(analysis))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.campaign import compare_models
    from repro.eval.reporting import render_campaign

    dataset = _dataset(args)
    comparison = compare_models(
        dataset.bundle,
        months=tuple(args.months),
        budgets=(0.1,),
        checkpoint_dir=args.checkpoint_dir,
    )
    print(render_campaign(comparison, args.months, budget=0.1))
    return 0


def _cmd_losses(args: argparse.Namespace) -> int:
    from repro.core.characterization import profile_population

    dataset = _dataset(args)
    churners = sorted(dataset.cohorts.churners)
    model = StabilityModel(dataset.calendar).fit(dataset.log, churners)
    profile = profile_population(
        (model.trajectory(c) for c in churners), min_share=args.min_share
    )
    rows = [
        (
            dataset.catalog.segment(s.item).name,
            s.n_losses,
            f"{s.abrupt_rate:.0%}",
            f"{s.recovery_rate:.0%}",
            f"{s.mean_share:.1%}",
        )
        for s in profile.top_lost(args.top)
    ]
    print(f"{profile.n_events} loss events across {profile.n_customers} churners\n")
    print(
        format_table(
            ("segment", "losses", "abrupt", "recovered", "mean share"), rows
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.customer_report import build_customer_report, render_customer_report

    dataset = _dataset(args)
    if args.customer not in dataset.log:
        print(f"customer {args.customer} not in the dataset", file=sys.stderr)
        return 1
    model = StabilityModel(dataset.calendar).fit(dataset.log, [args.customer])
    report = build_customer_report(model, dataset.log, args.customer)
    print(render_customer_report(report, dataset.catalog, top_k=args.top_k))
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.data.io import read_log_csv
    from repro.data.quality import (
        profile_log,
        render_quality_report,
        render_quarantine_report,
    )

    if args.log is not None:
        if args.lenient:
            log, quarantine = read_log_csv(args.log, on_error="quarantine")
            if not quarantine.is_clean:
                print(render_quarantine_report(quarantine))
                print()
        else:
            log = read_log_csv(args.log)
        calendar = None
    else:
        dataset = _dataset(args)
        log = dataset.log
        calendar = dataset.calendar
    print(render_quality_report(profile_log(log, calendar=calendar)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.viz.export import write_series_csv, write_series_json

    dataset = _dataset(args)
    result = run_figure1(dataset.bundle)
    months = result.months()
    series = {
        "stability_auroc": result.stability.values(),
        "rfm_auroc": result.rfm.values(),
    }
    if args.out.suffix == ".json":
        write_series_json(
            args.out,
            months,
            series,
            x_name="month",
            metadata={
                "onset_month": result.onset_month,
                "window_months": result.window_months,
                "alpha": result.alpha,
            },
        )
    else:
        write_series_csv(args.out, months, series, x_name="month")
    print(f"wrote Figure 1 series to {args.out}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.errors import SchemaError
    from repro.obs import read_trace_jsonl, render_span_summary, summarize_spans

    if args.obs_command == "summarize":
        try:
            records = read_trace_jsonl(args.trace)
        except (OSError, SchemaError) as exc:
            # Exit 2 = unusable input (missing/corrupt artifact), kept
            # distinct from exit 1 (the command ran and found a problem)
            # so scripts can tell the two apart.
            print(f"obs summarize: cannot read trace: {exc}", file=sys.stderr)
            return 2
        if not records:
            print(f"{args.trace}: trace is empty")
            return 0
        print(f"{args.trace}: {len(records)} span(s)")
        print(render_span_summary(summarize_spans(records)))
    elif args.obs_command == "tail":
        from repro.obs.tail import tail_stream

        try:
            frames = tail_stream(
                args.stream,
                sys.stdout,
                follow=args.follow,
                interval_s=args.interval,
                max_frames=args.frames,
            )
        except SchemaError as exc:
            print(f"obs tail: cannot read stream: {exc}", file=sys.stderr)
            return 2
        print(f"rendered {frames} frame(s)", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval.benchmarking import (
        merge_scaling_json,
        protocol_telemetry,
        render_scaling,
        scaling_telemetry,
        slab_grid_telemetry,
        telemetry_overhead,
    )

    telemetry = scaling_telemetry(
        sizes=tuple(args.sizes),
        seed=args.seed,
        repeat=args.repeat,
        n_jobs=args.n_jobs,
    )
    if args.protocol_size > 0:
        telemetry["eval_protocol"] = protocol_telemetry(
            size=args.protocol_size, seed=args.seed, repeat=args.repeat
        )
    if args.telemetry_size > 0:
        telemetry["telemetry_overhead"] = telemetry_overhead(
            size=args.telemetry_size, seed=args.seed, repeat=args.repeat
        )
    slab_sizes = list(args.slab_sizes) if args.slab_sizes else []
    if args.slab_million:
        slab_sizes.append(1_000_000)
    if slab_sizes:
        telemetry["slab_grid"] = slab_grid_telemetry(
            sizes=tuple(slab_sizes), seed=args.seed
        )
    print(f"stability fit scaling (best-of-{args.repeat} wall clock)")
    print(render_scaling(telemetry))
    if args.json is not None:
        # Merge: the artifact also carries the slab grid, which
        # benchmarks/bench_slab_grid.py refreshes and this run keeps.
        merge_scaling_json(args.json, telemetry)
        print(f"wrote telemetry to {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.synth.stream import record_stream, stream_fingerprint

    dataset = paper_scenario(
        n_loyal=args.loyal,
        n_churners=args.churners,
        seed=args.seed,
        n_months=args.months,
        onset_month=args.onset_month,
    )
    baskets = sorted(dataset.log, key=lambda b: (b.day, b.customer_id))
    path = record_stream(
        baskets,
        args.out,
        calendar=dataset.calendar,
        meta={
            "seed": args.seed,
            "n_loyal": args.loyal,
            "n_churners": args.churners,
        },
    )
    print(
        f"recorded {len(baskets)} baskets / "
        f"{dataset.log.n_customers} customers to {path} "
        f"(fingerprint {stream_fingerprint(path)})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.obs import (
        FlightRecorder,
        MetricsPublisher,
        MetricsRegistry,
        metrics_enabled,
        use_metrics,
    )
    from repro.serve import (
        StatusBoard,
        StatusServer,
        offline_sweep_stream,
        serve_stream,
    )

    if not args.stream.exists():
        print(f"stream file not found: {args.stream}", file=sys.stderr)
        return 1
    config = ExperimentConfig(
        window_months=args.window_months, alpha=args.alpha
    )
    stop_requested = {"flag": False}

    def _request_stop(signum: int, frame: object) -> None:
        del frame
        stop_requested["flag"] = True
        print(
            f"signal {signum}: stopping after the current batch commits "
            "(rerun to resume)",
            file=sys.stderr,
        )

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    board = StatusBoard()
    server: StatusServer | None = None
    # The live telemetry plane rides along whenever it has a consumer:
    # the status API (/metrics), a JSONL stream file, or a flight dir.
    plane_on = (
        not args.no_api
        or args.metrics_stream_out is not None
        or args.flight_dir is not None
    )
    publisher = None
    if plane_on:
        publisher = MetricsPublisher(
            board=board,
            flight=(
                FlightRecorder(args.flight_dir)
                if args.flight_dir is not None
                else None
            ),
            stream_path=args.metrics_stream_out,
            interval_s=args.publish_interval,
        )
    # The publisher samples the active registry; when no --metrics-out
    # session installed one, give the plane its own private registry
    # (scores stay bit-identical either way — pinned by the bench).
    registry_cm = (
        use_metrics(MetricsRegistry())
        if plane_on and not metrics_enabled()
        else nullcontext()
    )
    try:
        if not args.no_api:
            server = StatusServer(board, port=args.status_port)
            print(
                f"status API on http://127.0.0.1:{server.start()}/status",
                file=sys.stderr,
            )
        with registry_cm:
            result = serve_stream(
                args.stream,
                args.checkpoint_dir,
                batch_size=args.batch_size,
                n_shards=args.n_shards,
                config=config,
                beta=args.beta,
                first_alarm_window=args.first_alarm_window,
                status=board,
                publisher=publisher,
                max_batches=args.max_batches,
                should_stop=lambda: stop_requested["flag"],
            )
    finally:
        if server is not None:
            server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    counters = result.counters
    print(
        f"served {result.batches_this_run} batch(es) this run "
        f"({result.batches_reworked} reworked), cursor at "
        f"{result.day_batches_consumed} day(s)"
        f"{' [resumed]' if result.resumed else ''}"
    )
    print(
        format_table(
            ("counter", "value"),
            [
                ("ingested", counters.ingested),
                ("scored", counters.scored),
                ("flagged", counters.flagged),
                ("checkpointed", counters.checkpointed),
            ],
        )
    )
    flagged = sum(1 for f in result.flags.values() if f)
    print(
        f"{flagged}/{len(result.flags)} customers flagged; "
        f"score fingerprint {result.fingerprint()}"
    )
    if not result.finished:
        print(
            f"interrupted; rerun with the same --checkpoint-dir to resume "
            f"from {result.checkpoint_dir}",
            file=sys.stderr,
        )
        return 3
    if args.parity_check:
        reference = offline_sweep_stream(
            args.stream,
            config=config,
            beta=args.beta,
            first_alarm_window=args.first_alarm_window,
        )
        if reference.fingerprint() != result.fingerprint():
            print(
                f"PARITY MISMATCH: offline sweep fingerprint "
                f"{reference.fingerprint()} != served "
                f"{result.fingerprint()}",
                file=sys.stderr,
            )
            return 1
        print(
            f"parity OK: offline sweep matches bit-for-bit "
            f"({reference.fingerprint()})"
        )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.eval.benchmarking import merge_scaling_json
    from repro.obs import FlightRecorder, MetricsPublisher
    from repro.serve import StatusBoard, StatusServer
    from repro.soak import (
        ChaosSchedule,
        SoakPlan,
        live_plane_overhead,
        render_soak,
        run_soak,
        stream_shape,
        write_bench,
    )

    if not args.stream.exists():
        print(f"stream file not found: {args.stream}", file=sys.stderr)
        return 1
    config = ExperimentConfig(
        window_months=args.window_months, alpha=args.alpha
    )
    board = StatusBoard()
    server: StatusServer | None = None
    flight_dir = (
        args.flight_dir if args.flight_dir is not None else args.workdir / "flight"
    )
    publisher = MetricsPublisher(
        board=board,
        flight=FlightRecorder(flight_dir),
        stream_path=args.metrics_stream_out,
        interval_s=args.publish_interval,
    )
    try:
        plan = SoakPlan(
            mode="duration" if args.duration is not None else "loops",
            loops=args.loops,
            duration_s=args.duration if args.duration is not None else 0.0,
            rate=args.rate,
            batch_size=args.batch_size,
            n_shards=args.n_shards,
            slo_p50_ms=args.slo_p50_ms,
            slo_p95_ms=args.slo_p95_ms,
            slo_p99_ms=args.slo_p99_ms,
            min_throughput=args.min_throughput,
        )
        chaos = None
        if args.chaos == "smoke":
            n_batches, _ = stream_shape(args.stream, plan.batch_size)
            chaos = ChaosSchedule.smoke(n_batches)
        if args.status_port is not None:
            server = StatusServer(board, port=args.status_port)
            print(
                f"status API on http://127.0.0.1:{server.start()}/status "
                "(live exposition on /metrics)",
                file=sys.stderr,
            )
        report = run_soak(
            args.stream,
            args.workdir,
            plan,
            chaos,
            config=config,
            beta=args.beta,
            first_alarm_window=args.first_alarm_window,
            keep_checkpoints=args.keep_checkpoints,
            status=board,
            publisher=publisher,
        )
    except ConfigError as exc:
        print(f"soak configuration error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
    print(render_soak(report))
    if publisher.flight is not None and publisher.flight.flushed:
        print(
            f"flight recorder: {len(publisher.flight.flushed)} artifact(s) "
            f"in {flight_dir}",
            file=sys.stderr,
        )
    if args.bench_out is not None:
        write_bench(report, args.bench_out)
        print(f"wrote bench artifact to {args.bench_out}", file=sys.stderr)
    if args.pin_telemetry_overhead:
        verdict = live_plane_overhead(
            args.stream, batch_size=args.batch_size
        )
        print(
            f"live plane overhead: {verdict['overhead_pct']:.2f}% "
            f"(budget {verdict['budget_pct']}%, "
            f"{'ok' if verdict['ok'] else 'OVER BUDGET'}; scores bit-identical)"
        )
        if args.bench_out is not None:
            merge_scaling_json(args.bench_out, {"telemetry_plane": verdict})
        if not verdict["ok"]:
            return 1
    return 0 if report.passed else 1


_COMMANDS = {
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "record": _cmd_record,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "obs": _cmd_obs,
    "generate": _cmd_generate,
    "report": _cmd_report,
    "quality": _cmd_quality,
    "export": _cmd_export,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "stats": _cmd_stats,
    "tune": _cmd_tune,
    "explain": _cmd_explain,
    "delay": _cmd_delay,
    "compare": _cmd_compare,
    "losses": _cmd_losses,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    session = TelemetrySession(args.trace_out, args.metrics_out)
    with session:
        code = _COMMANDS[args.command](args)
    if session.trace_out is not None:
        print(f"wrote trace to {session.trace_out}", file=sys.stderr)
    if session.metrics_out is not None:
        print(f"wrote metrics to {session.metrics_out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
