"""The measuring process: one workload, one seed, metrics and run record.

Run as ``python -m perfbench.measure`` from the repository root (see
``perfbench/run.py``, which also generates the inputs).  It writes a JSON
run record holding the metrics, the outcome counts, every raw interval
with its two probes and the whole probe series, so the reference-speed
normalisation can be audited afterwards.  With ``--trace 1`` the layer
wrappers are installed, the per-layer table is printed, the per-layer
metrics replace the end-to-end ones and the record also holds every span
(name, start, end, parent, interval kind and index).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

from perfbench.probe import COMPONENTS, PROBE_BYTES, Interval, Probe
from perfbench.tracing import (
    LAYER_OF_SPAN,
    Recorder,
    install_layer_wrappers,
    worker_peak_rss_mb,
)
from perfbench.workloads import MIN_OPS, WORKLOADS, Context, Outcome, Timeline

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"
ToRef = Callable[[Interval], float]


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(outcome: Outcome, ref: ToRef, kind: str) -> dict[str, float]:
    op_ms = [ref(op) * 1e3 for op in outcome.ops]
    if kind == "slab":
        written = sum(s.write_bytes for s in outcome.setups)
        per_basket = written / outcome.setup_baskets
    else:
        per_basket = sum(op.write_bytes for op in outcome.ops) / outcome.baskets
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "baskets_per_s": outcome.baskets / sum(ref(op) for op in outcome.ops),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90(op_ms),
        "setup_s": statistics.median(ref(s) for s in outcome.setups),
        "peak_rss_mb": (peak - PROBE_BYTES) / 2**20,
        "write_bytes_per_basket": per_basket,
    }


def per_layer(
    outcome: Outcome, recorder: Recorder, probe: Probe, ref: ToRef
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics (per traced op or per set-up, at reference
    speed) and the shares the stage predictions are checked against."""
    def factor(interval: Interval) -> float:
        return ref(interval) / interval.raw_s

    traced = [k for k in range(len(outcome.ops)) if k % 2 == 0]
    untraced = [k for k in range(len(outcome.ops)) if k % 2 == 1]
    own = recorder.self_times()
    busy: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    covered = 0.0
    setup_busy: dict[str, float] = defaultdict(float)
    setup_inclusive: dict[str, float] = defaultdict(float)
    setup_counts: dict[str, float] = defaultdict(float)
    build_bytes = build_fsyncs = 0.0
    builds = 0
    for index, span in enumerate(recorder.spans):
        kind, number = span.interval
        if kind == "setup":
            f = factor(outcome.setups[number])
            setup_busy[LAYER_OF_SPAN.get(span.name, span.name)] += own[index] * f
            setup_inclusive[span.name] += (span.end - span.start) * f
            for key, value in span.attrs.items():
                # A time attribute (the executor's wait_s) is normalised too.
                scale = f if key.endswith("_s") else 1.0
                setup_counts[f"{span.name}.{key}"] += value * scale
            if span.name == "data.slabs.build":
                build_bytes += outcome.setups[number].write_bytes
                builds += 1
            elif span.name == "atomicio.fsync" and _under(recorder, index, "data.slabs.build"):
                build_fsyncs += 1
            continue
        if kind != "op":
            continue
        f = factor(outcome.ops[number])
        layer = LAYER_OF_SPAN.get(span.name, span.name)
        busy[layer] += own[index] * f
        inclusive[span.name] += (span.end - span.start) * f
        if span.parent < 0:
            covered += (span.end - span.start) * f
        for key, value in span.attrs.items():
            counts[f"{span.name}.{key}"] += value
        counts[f"{span.name}.calls"] += 1
    n = max(len(traced), 1)
    op_total = sum(ref(outcome.ops[k]) for k in traced)
    traced_ms = [ref(outcome.ops[k]) * 1e3 for k in traced]
    untraced_ms = [ref(outcome.ops[k]) * 1e3 for k in untraced]
    raw_total = sum(op.raw_s for op in outcome.ops)
    snapshotted = counts["serve.pool.snapshot.customers"]
    setups = max(len(outcome.setups), 1)
    setup_total = sum(ref(s) for s in outcome.setups)

    def ms(layer: str) -> float:
        return busy[layer] * 1e3 / n

    metrics = {
        "synth.stream.decode.busy_ms": ms("synth.stream.decode"),
        "synth.stream.decode.day_batches": counts["synth.stream.decode.day_batches"] / n,
        "synth.stream.fingerprint.busy_ms": ms("synth.stream.fingerprint"),
        "serve.pool.advance.busy_ms": ms("serve.pool.advance"),
        "serve.pool.advance.baskets": counts["serve.pool.advance.baskets"] / n,
        "serve.pool.advance.windows_closed": counts["serve.pool.advance.windows_closed"] / n,
        "serve.pool.snapshot.busy_ms": ms("serve.pool.snapshot"),
        "serve.pool.restore.busy_ms": ms("serve.pool.restore"),
        "serve.pool.touched_share": (
            counts["serve.pool.advance.touched"] / snapshotted if snapshotted else 0.0
        ),
        "runtime.snapshot.encode.busy_ms": ms("runtime.snapshot.encode"),
        "runtime.snapshot.encode.customers": counts["runtime.snapshot.encode.customers"] / n,
        "runtime.snapshot.decode.busy_ms": ms("runtime.snapshot.decode"),
        "runtime.snapshot.decode.customers": counts["runtime.snapshot.decode.customers"] / n,
        "runtime.executor.busy_ms": setup_busy["runtime.executor"] * 1e3 / setups,
        "runtime.executor.wait_ms": setup_counts["runtime.executor.wait_s"] * 1e3 / setups,
        "runtime.executor.pools": setup_counts["runtime.executor.pools"] / setups,
        "runtime.executor.retries": setup_counts["runtime.executor.retries"] / setups,
        "runtime.executor.degraded": setup_counts["runtime.executor.degraded"] / setups,
        "runtime.executor.worker_peak_rss_mb": worker_peak_rss_mb(),
        "serve.checkpoint.write.busy_ms": ms("serve.checkpoint.write"),
        "serve.checkpoint.commit.busy_ms": ms("serve.checkpoint.commit"),
        "serve.checkpoint.load.busy_ms": ms("serve.checkpoint.load"),
        "serve.checkpoint.load.bytes": counts["serve.checkpoint.load.bytes"] / n,
        "atomicio.write.busy_ms": ms("atomicio.write"),
        "atomicio.write.files": counts["atomicio.write.files"] / n,
        "atomicio.write.bytes": counts["atomicio.write.bytes"] / n,
        "atomicio.fsyncs": counts["atomicio.fsync.calls"] / n,
        "serve.loop.self_ms": ms("serve.loop"),
        "data.slabs.build.busy_ms": (
            setup_busy["data.slabs.build"] * 1e3 / builds if builds else 0.0
        ),
        "data.slabs.build.bytes": build_bytes / builds if builds else 0.0,
        "data.slabs.build.fsyncs": build_fsyncs / builds if builds else 0.0,
        "data.slabs.open.busy_ms": ms("data.slabs.open"),
        "data.slabs.frame.busy_ms": ms("data.slabs.frame"),
        "core.model.fit.busy_ms": ms("core.model.fit"),
        "core.batch.fit.busy_ms": ms("core.batch.fit"),
        "core.batch.fit.receipts": counts["core.batch.fit.receipts"] / n,
        "core.batch.fit.customers": counts["core.batch.fit.customers"] / n,
        "core.model.scores.busy_ms": ms("core.model.scores"),
        "bench.probe_ms": statistics.median(sum(p) for p in probe.series_ms),
        "bench.raw_baskets_per_s": outcome.baskets / raw_total,
        "bench.trace_overhead_pct": (
            (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1) * 100
        ),
        "bench.unattributed_pct": (op_total - covered) / op_total * 100,
    }
    shares = {
        "op_ms": op_total * 1e3 / n,
        "self": {layer: value / op_total for layer, value in sorted(busy.items())},
        "inclusive": {name: value / op_total for name, value in sorted(inclusive.items())},
        "unattributed": (op_total - covered) / op_total,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "setups": len(outcome.setups),
        "setup_ms": setup_total * 1e3 / setups,
        "setup_self": {
            layer: value / setup_total for layer, value in sorted(setup_busy.items())
        },
        "setup_inclusive": {
            name: value / setup_total for name, value in sorted(setup_inclusive.items())
        },
    }
    return metrics, shares


def _under(recorder: Recorder, index: int, name: str) -> bool:
    parent = recorder.spans[index].parent
    while parent >= 0:
        if recorder.spans[parent].name == name:
            return True
        parent = recorder.spans[parent].parent
    return False


def _layer_rows(own: dict[str, float], inclusive: dict[str, float]) -> list[str]:
    rows = [f"  {'layer':<28} {'self':>7} {'incl':>7}"]
    for layer, share in sorted(own.items(), key=lambda kv: -kv[1]):
        incl = inclusive.get(layer)
        incl_text = f"{incl:7.1%}" if incl is not None else " " * 7
        rows.append(f"  {layer:<28} {share:7.1%} {incl_text}")
    return rows


def render_layers(workload: str, shares: dict) -> str:
    lines = [
        f"per-layer split, {workload}: {shares['traced_ops']} traced ops, "
        f"{shares['op_ms']:.2f} ms/op at reference speed",
        *_layer_rows(shares["self"], shares["inclusive"]),
        f"  {'(unattributed)':<28} {shares['unattributed']:7.1%}",
        f"set-up split, {workload}: {shares['setups']} set-ups, "
        f"{shares['setup_ms']:.2f} ms each at reference speed",
        *_layer_rows(shares["setup_self"], shares["setup_inclusive"]),
    ]
    return "\n".join(lines)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    meta_path: Path,
    work: Path,
    *,
    min_ops: int = MIN_OPS,
    reference: dict | None = None,
) -> dict:
    """Measure one workload; the run record (see module docstring)."""
    spec = load_spec()
    p_ref = float(spec["p_ref_ms"])
    elasticity = float(spec["elasticity"][workload])
    kind, drive = WORKLOADS[workload]
    meta = json.loads(meta_path.read_text())
    probe = Probe()
    for _ in range(20):
        probe.measure()
    recorder = Recorder() if trace else None
    undo = install_layer_wrappers(recorder) if recorder is not None else None
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    timeline = Timeline(probe, recorder)
    ctx = Context(
        timeline=timeline,
        work=work,
        inputs=meta_path.parent,
        reference=reference if reference is not None else meta["reference"],
        seconds=seconds,
        min_ops=min_ops,
    )
    try:
        drive(ctx)
    finally:
        if undo is not None:
            undo()
        shutil.rmtree(work, ignore_errors=True)
    outcome = timeline.outcome
    failed = sum(1 for ok in outcome.op_ok if not ok)
    record: dict = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "p_ref_ms": p_ref,
        "elasticity": elasticity,
        "passes": outcome.passes,
        "attempted": len(outcome.op_ok),
        "failed": failed,
        "fail_ratio": failed / max(len(outcome.op_ok), 1),
        "correct": failed == 0 and not outcome.failures and len(outcome.op_ok) == len(outcome.ops),
        "failures": outcome.failures[:20],
        "baskets": outcome.baskets,
        "intervals": {
            "columns": ["raw_s", "probe_before_ms", "probe_after_ms", "write_bytes"],
            "probe_columns": list(COMPONENTS),
            "setups": [s.as_record() for s in outcome.setups],
            "ops": [op.as_record() for op in outcome.ops],
        },
        "probe_series_ms": probe.series_ms,
    }

    def ref(interval: Interval) -> float:
        return interval.ref_s(p_ref, elasticity)

    if recorder is None:
        record["metrics"] = end_to_end(outcome, ref, kind)
    else:
        record["metrics"], record["layers"] = per_layer(outcome, recorder, probe, ref)
        record["spans"] = {
            "columns": ["name", "start_s", "end_s", "parent", "interval", "index"],
            "rows": [
                [s.name, s.start, s.end, s.parent, *s.interval] for s in recorder.spans
            ],
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--meta", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    args = parser.parse_args(argv)
    record = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.meta, args.work
    )
    args.record.parent.mkdir(parents=True, exist_ok=True)
    args.record.write_text(json.dumps(record) + "\n")
    if args.trace:
        print(render_layers(args.workload, record["layers"]), flush=True)
        margin = load_spec()["trace_margin_pct"]
        if record["metrics"]["bench.unattributed_pct"] > margin:
            print(
                f"warning: layer spans leave "
                f"{record['metrics']['bench.unattributed_pct']:.1f}% of op time "
                f"unattributed (margin {margin}%)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
