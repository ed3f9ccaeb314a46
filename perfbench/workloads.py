"""The three workloads: closed-loop drives of the serve and slab paths.

Each workload runs one client (the replay or fit loop itself, unpaced)
in the measuring process; the set-up of ``serve-restart`` adds the
program's own two shard worker processes.  A run first warms up
(untimed), then takes the set-up samples, then measures whole passes
until at least ``seconds`` of op time and :data:`MIN_OPS` ops are in
hand, so that ten or more ops lie beyond p90.  Every interval is
bracketed by probes (:class:`Timeline`).
"""

from __future__ import annotations

import itertools
import math
import shutil
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.inputs import SLAB_WINDOW, churn_digest, iter_chunks, slab_config
from perfbench.probe import Clock, Interval, Probe
from perfbench.tracing import Recorder

__all__ = ["MIN_OPS", "Outcome", "Timeline", "WORKLOADS"]

#: Ops a run measures at least, so that >= 10 lie beyond p90.
MIN_OPS = 100
#: Fresh serve start-ups measured per run besides the passes' own.
START_SAMPLES = 6
#: serve-restart set-ups (half the stream each) besides the passes' own.
RESTART_SETUPS = 2
#: Slab store builds (the slab-fit set-up) measured per run.
SLAB_BUILDS = 3


class _Started(Exception):
    """Raised from the first ``on_batch_start`` to end a start-up sample."""


@dataclass
class Outcome:
    setups: list[Interval] = field(default_factory=list)
    ops: list[Interval] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    #: Baskets ingested and committed (serve) or scored (slab) by the ops.
    baskets: int = 0
    #: Baskets written durably by the set-ups (slab-fit only).
    setup_baskets: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)


class Timeline:
    """Timed intervals of one run, and the trace switch that follows them.

    With a recorder, set-ups are always traced and ops alternate between
    traced (even index) and untraced (odd index).
    """

    def __init__(self, probe: Probe, recorder: Recorder | None) -> None:
        self.clock = Clock(probe)
        self.recorder = recorder
        self.outcome = Outcome()
        self._kind = "setup"

    def _mark(self, kind: str) -> None:
        self._kind = kind
        if self.recorder is None:
            return
        index = len(self.outcome.ops if kind == "op" else self.outcome.setups)
        self.recorder.interval = (kind, index)
        self.recorder.active = kind == "setup" or index % 2 == 0

    def _store(self, interval: Interval) -> Interval:
        target = self.outcome.ops if self._kind == "op" else self.outcome.setups
        target.append(interval)
        if self.recorder is not None:
            self.recorder.active = False
            self.recorder.interval = ("idle", 0)
        return interval

    def begin(self, kind: str) -> None:
        self.clock.begin()
        self._mark(kind)

    def split(self, next_kind: str) -> Interval:
        interval = self._store(self.clock.split())
        self._mark(next_kind)
        return interval

    def end(self) -> Interval:
        return self._store(self.clock.end())

    def op_seconds(self) -> float:
        return sum(op.raw_s for op in self.outcome.ops)


@dataclass
class Context:
    timeline: Timeline
    work: Path
    inputs: Path
    reference: dict
    seconds: float
    min_ops: int = MIN_OPS

    def enough(self) -> bool:
        return (
            len(self.timeline.outcome.ops) >= self.min_ops
            and self.timeline.op_seconds() >= self.seconds
        )

    def fresh(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        return path

    def check_serve(self, result, label: str) -> bool:
        """A finished serve pass against the offline reference."""
        ref = self.reference
        got = {
            "fingerprint": result.fingerprint(),
            "ingested": result.counters.ingested,
            "scored": result.counters.scored,
            "flagged": result.counters.flagged,
        }
        want = {k: ref[k] for k in got}
        if result.finished and got == want:
            return True
        self.timeline.outcome.failures.append(
            f"{label}: finished={result.finished} got {got}, want {want}"
        )
        return False


# ----------------------------------------------------------------------
# serve-daily: whole passes, one op per data batch
# ----------------------------------------------------------------------
def serve_daily(ctx: Context) -> None:
    from repro.serve.loop import serve_stream

    shape = {"batch_size": 256, "n_shards": 1, "parallel": False}
    timeline = ctx.timeline
    outcome = timeline.outcome
    stream = ctx.inputs / "stream.jsonl"
    serve_stream(stream, ctx.fresh("warmup"), max_batches=8, **shape)

    def started(_commit_index: int) -> None:
        timeline.end()
        raise _Started

    for _ in range(START_SAMPLES):
        timeline.begin("setup")
        try:
            serve_stream(stream, ctx.fresh("start"), on_batch_start=started, **shape)
        except _Started:
            pass
        else:
            raise RuntimeError("serve_stream finished without starting a batch")

    while outcome.passes == 0 or not ctx.enough():
        first_op = len(outcome.ops)
        in_setup = [True]

        def on_batch_start(_commit_index: int) -> None:
            if in_setup[0]:
                in_setup[0] = False
                timeline.split("op")

        def should_stop() -> bool:
            timeline.split("op")
            return False

        directory = ctx.fresh("pass")
        timeline.begin("setup")
        result = serve_stream(
            stream,
            directory,
            on_batch_start=on_batch_start,
            should_stop=should_stop,
            **shape,
        )
        timeline.end()
        outcome.passes += 1
        ok = ctx.check_serve(result, f"pass {outcome.passes}")
        outcome.op_ok.extend([ok] * (len(outcome.ops) - first_op))
        outcome.baskets += result.counters.ingested
        shutil.rmtree(directory)


# ----------------------------------------------------------------------
# serve-restart: half the stream as set-up (through the two shard
# workers), then one serial resumed leg per op
# ----------------------------------------------------------------------
def serve_restart(ctx: Context) -> None:
    from repro.serve.loop import serve_stream

    timeline = ctx.timeline
    outcome = timeline.outcome
    stream = ctx.inputs / "stream.jsonl"
    half = math.ceil(ctx.reference["ingested"] / 2)
    shape = {"n_shards": 2, "parallel": False}

    def first_half(directory: Path) -> int:
        timeline.begin("setup")
        result = serve_stream(
            stream, directory, batch_size=half, max_batches=1,
            n_shards=2, parallel=True,
        )
        timeline.end()
        if result.finished or result.batches_this_run != 1:
            raise RuntimeError("serve-restart set-up did not stop after one batch")
        return result.counters.ingested

    warm = ctx.fresh("warmup")
    serve_stream(
        stream, warm, batch_size=half, max_batches=1, n_shards=2, parallel=True
    )
    serve_stream(stream, warm, batch_size=256, max_batches=1, **shape)
    for _ in range(RESTART_SETUPS):
        first_half(ctx.fresh("start"))

    # Per leg of the first pass, which must end at the reference: the
    # counters and score fingerprint later passes are checked against.
    first_pass: list[tuple] = []
    while outcome.passes == 0 or not ctx.enough():
        directory = ctx.fresh("pass")
        ingested = first_half(directory)
        first_op = len(outcome.ops)
        for leg in itertools.count():
            timeline.begin("op")
            result = serve_stream(
                stream, directory, batch_size=256, max_batches=1, **shape
            )
            timeline.end()
            outcome.baskets += result.counters.ingested - ingested
            ingested = result.counters.ingested
            seen = (result.counters.as_dict(), result.fingerprint(), result.finished)
            if outcome.passes == 0:
                first_pass.append(seen)
                ok = result.resumed and not result.batches_reworked
            else:
                ok = leg < len(first_pass) and seen == first_pass[leg]
            if not ok:
                outcome.failures.append(f"pass {outcome.passes + 1} leg {leg}: {seen}")
            outcome.op_ok.append(ok)
            if result.finished or (outcome.passes > 0 and ctx.enough()):
                break
        if outcome.passes == 0 and not ctx.check_serve(result, "pass 1"):
            outcome.op_ok[first_op:] = [False] * (len(outcome.op_ok) - first_op)
        outcome.passes += 1
        shutil.rmtree(directory)


# ----------------------------------------------------------------------
# slab-fit: build the store (set-up), then open -> fit -> churn scores
# ----------------------------------------------------------------------
def slab_fit(ctx: Context) -> None:
    from repro.core.model import StabilityModel
    from repro.data.calendar import StudyCalendar
    from repro.data.slabs import build_slab_store, open_slab_store

    timeline = ctx.timeline
    outcome = timeline.outcome
    recorder = timeline.recorder
    calendar = StudyCalendar.paper()
    config = slab_config()
    grid = config.grid(calendar)
    chunks = ctx.inputs / "chunks.npz"
    want = ctx.reference["churn_digest"]

    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    for _ in range(SLAB_BUILDS):
        directory = ctx.fresh("store")
        timeline.begin("setup")
        with span("data.slabs.build"):
            store = build_slab_store(
                iter_chunks(chunks), grid, directory, fingerprint="perfbench-slab"
            )
        timeline.end()
        outcome.setup_baskets += int(store.manifest["columns"]["basket_days"]["rows"])

    def fit_once() -> dict[int, float]:
        with span("data.slabs.open"):
            store = open_slab_store(directory)
        with span("data.slabs.frame"):
            frame = store.frame()
        with span("core.model.fit"):
            model = StabilityModel(calendar, config=config).fit(frame)
        with span("core.model.scores"):
            return model.churn_scores(SLAB_WINDOW)

    fit_once()
    while not ctx.enough():
        timeline.begin("op")
        scores = fit_once()
        timeline.end()
        outcome.baskets += ctx.reference["receipts"]
        ok = churn_digest(scores) == want
        if not ok:
            outcome.failures.append(f"op {len(outcome.ops)}: churn digest differs")
        outcome.op_ok.append(ok)
    outcome.passes = 1


WORKLOADS: dict[str, tuple[str, Callable[[Context], None]]] = {
    "serve-daily": ("serve", serve_daily),
    "serve-restart": ("serve", serve_restart),
    "slab-fit": ("slab", slab_fit),
}
