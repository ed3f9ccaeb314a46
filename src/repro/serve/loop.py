"""The serving loop: replay → score → checkpoint, crash-rework ≤ 1 batch.

:func:`serve_stream` is the daemon's engine room.  It consumes a
recorded day-ordered basket stream (:mod:`repro.synth.stream`) in
checkpoint batches — consecutive whole days until at least
``batch_size`` baskets accumulate — plays each batch through a
:class:`~repro.serve.pool.ShardedMonitorPool`, counts the scores and
alarms its window closes report, and makes the batch durable through
:class:`~repro.serve.checkpoint.ServeCheckpoint`'s state-then-cursor
protocol.  The shard monitors are the one serve state: each keeps its
customers' last stabilities and every alarm it raised
(:func:`~repro.core.streaming.monitor_scores` reads the result from
them), so a shard snapshot is all a commit writes for its shard.  A
batch that closes a window (and the first commit, and the finish seal)
writes a full base; any other batch writes only its journal, so the
cost of a commit follows the batch, not the population.  The FeedForward streaming-batch runbook
(SNIPPETS.md Snippet 2) is the contract:

* counters ``ingested`` / ``scored`` / ``flagged`` / ``checkpointed``
  are cumulative across resumes (they ride inside the committed
  cursor, so a resume restores them atomically with the position);
* a crash at any point costs at most **one batch** of rework — the
  cursor commit is the only point of no return, and everything written
  before it is re-derived identically on replay;
* an unusable cursor (torn file, version drift, stream or config
  fingerprint mismatch, a ``stream_offset`` that does not begin a day
  line or whose preceding day line is not the resumed state's last
  day) is not fatal: the loop logs a warning, counts
  ``serve.cursor_invalid`` and restarts from the stream head with fresh
  shards, which re-derive every score and alarm.

A cursor is pinned to the digest of the stream prefix its state
consumed (:func:`~repro.synth.stream.stream_fingerprint` of bytes
``[0, stream_offset)``: the header line and every day line served).  A
resume reads the checkpoint back, restores the shards, checks the
resume offset, then hashes that prefix and compares it with the
cursor's before it replays any batch, all on the calling thread; the
replay then feeds every day line it serves into the same digest, so
each commit's cursor holds the digest at its own offset.  A fresh start
hashes nothing up front: the replay hashes from the head.  Days
appended past the offset leave the prefix, and so the cursor, valid.

The headline invariant — pinned by the parity tests and checkable via
:func:`score_fingerprint` — is that serving a recorded stream to
completion is **bit-identical** to :func:`offline_sweep` (one
:class:`~repro.core.streaming.StabilityMonitor` over the same log),
regardless of shard count, parallelism, or how many times the run was
killed and resumed along the way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import ExperimentConfig
from repro.core.streaming import StabilityMonitor, WindowCloseReport, monitor_scores
from repro.errors import ConfigError, SnapshotError
from repro.obs import build_manifest, get_metrics, get_tracer, timed_stage, write_manifest
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import config_fingerprint
from repro.serve.checkpoint import (
    CursorInvalid,
    ServeCheckpoint,
    ServeCursor,
)
from repro.serve.pool import ShardedMonitorPool
from repro.synth.stream import (
    check_replay_start,
    digest_fingerprint,
    read_stream_header,
    replay_stream,
    stream_calendar,
    stream_fingerprint,
)

if TYPE_CHECKING:
    from repro.data.basket import Basket, DayBatch
    from repro.data.calendar import StudyCalendar
    from repro.obs.export import MetricsPublisher
    from repro.runtime.faults import FaultPlan
    from repro.serve.api import StatusBoard

__all__ = [
    "ServeCounters",
    "ServeResult",
    "OfflineSweep",
    "serve_stream",
    "offline_sweep",
    "offline_sweep_stream",
    "score_fingerprint",
]

logger = logging.getLogger(__name__)


@dataclass
class ServeCounters:
    """The runbook's cumulative counter quartet (see module docstring)."""

    #: Baskets played into the monitors.
    ingested: int = 0
    #: (customer, window) stability scores emitted at window closes.
    scored: int = 0
    #: Alarms raised, one per (customer, window) threshold crossing.
    flagged: int = 0
    #: Data batches made durable (state written *and* cursor committed).
    checkpointed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, int]) -> ServeCounters:
        return cls(
            ingested=int(payload.get("ingested", 0)),
            scored=int(payload.get("scored", 0)),
            flagged=int(payload.get("flagged", 0)),
            checkpointed=int(payload.get("checkpointed", 0)),
        )


@dataclass(frozen=True)
class ServeResult:
    """What one :func:`serve_stream` invocation produced."""

    #: Final stability per customer (``nan`` when never defined).
    scores: dict[int, float]
    #: Whether each customer ever alarmed.
    flags: dict[int, bool]
    #: Every (window, stability) alarm per customer, window-ordered.
    alarm_windows: dict[int, tuple[tuple[int, float], ...]]
    #: Cumulative runbook counters (across resumes).
    counters: ServeCounters
    #: Data batches processed by *this* invocation (rework included).
    batches_this_run: int
    #: Batches this invocation re-processed because a previous run
    #: crashed between state write and cursor commit (0 or 1).
    batches_reworked: int
    #: Day batches consumed up to the committed position (reporting;
    #: the cursor resumes from its byte offset).
    day_batches_consumed: int
    resumed: bool
    #: True when the stream was served to completion (windows closed,
    #: final cursor committed); False after an interruption.
    finished: bool
    checkpoint_dir: Path

    def fingerprint(self) -> str:
        """Canonical digest of scores/flags/alarms (parity checks)."""
        return score_fingerprint(self.scores, self.flags, self.alarm_windows)


@dataclass(frozen=True)
class OfflineSweep:
    """The offline reference result (single monitor over the full log)."""

    scores: dict[int, float]
    flags: dict[int, bool]
    alarm_windows: dict[int, tuple[tuple[int, float], ...]]

    def fingerprint(self) -> str:
        return score_fingerprint(self.scores, self.flags, self.alarm_windows)


def score_fingerprint(
    scores: dict[int, float],
    flags: dict[int, bool],
    alarm_windows: dict[int, tuple[tuple[int, float], ...]],
) -> str:
    """Short canonical digest of a score table.

    Floats serialise at ``repr`` precision and ``nan`` maps to ``null``,
    so two tables fingerprint equal iff they are bit-identical — the
    serving parity checks (serial vs sharded vs resumed vs offline)
    compare exactly this.
    """
    canonical = {
        str(customer_id): [
            None
            if math.isnan(scores[customer_id])
            else scores[customer_id],
            bool(flags.get(customer_id, False)),
            [[w, s] for w, s in alarm_windows.get(customer_id, ())],
        ]
        for customer_id in sorted(scores)
    }
    digest = hashlib.sha1(
        json.dumps(canonical, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _holds_data_past(stream: Path, offset: int) -> bool:
    """Whether ``stream`` holds more than blank lines past ``offset``
    (days appended after a finished run sealed it)."""
    with stream.open("rb") as handle:
        handle.seek(offset)
        return any(chunk.strip() for chunk in iter(lambda: handle.read(1 << 16), b""))


# ----------------------------------------------------------------------
# Window-close reports: counters and the status board
# ----------------------------------------------------------------------
def _apply_reports(
    reports: list[WindowCloseReport],
    counters: ServeCounters,
    pool: ShardedMonitorPool,
    status: StatusBoard | None,
) -> None:
    """Count the reports' scores and alarms; when a window closed,
    refresh the status board from the shards."""
    for report in reports:
        counters.scored += len(report.stabilities)
        counters.flagged += len(report.alarms)
    if reports and status is not None:
        status.set_scores(*monitor_scores(pool.monitors))


# ----------------------------------------------------------------------
# Offline reference
# ----------------------------------------------------------------------
def offline_sweep(
    baskets: Iterable[Basket],
    calendar: StudyCalendar,
    *,
    config: ExperimentConfig | None = None,
    beta: float = 0.5,
    first_alarm_window: int = 0,
) -> OfflineSweep:
    """The batch reference: one monitor over the whole log, no serving.

    Serving a recorded stream to completion must produce a table with
    an identical :func:`score_fingerprint` — that equality is the
    serving layer's correctness contract.
    """
    config = config if config is not None else ExperimentConfig()
    monitor = StabilityMonitor.from_config(
        calendar, config, beta=beta, first_alarm_window=first_alarm_window
    )
    monitor.ingest_many(baskets)
    monitor.finish()
    scores, flags, alarm_windows = monitor_scores([monitor])
    return OfflineSweep(
        scores=scores, flags=flags, alarm_windows=alarm_windows
    )


def offline_sweep_stream(
    stream_path: str | Path,
    *,
    config: ExperimentConfig | None = None,
    beta: float = 0.5,
    first_alarm_window: int = 0,
) -> OfflineSweep:
    """:func:`offline_sweep` over a recorded stream file."""
    header = read_stream_header(stream_path)
    calendar = stream_calendar(header)
    baskets = (
        basket
        for batch in replay_stream(stream_path)
        for basket in batch.baskets
    )
    return offline_sweep(
        baskets,
        calendar,
        config=config,
        beta=beta,
        first_alarm_window=first_alarm_window,
    )


# ----------------------------------------------------------------------
# The serving loop
# ----------------------------------------------------------------------
def serve_stream(
    stream_path: str | Path,
    checkpoint_dir: str | Path,
    *,
    batch_size: int = 256,
    n_shards: int = 1,
    parallel: bool = False,
    config: ExperimentConfig | None = None,
    beta: float = 0.5,
    first_alarm_window: int = 0,
    timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    status: StatusBoard | None = None,
    publisher: MetricsPublisher | None = None,
    max_batches: int | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_state_written: Callable[[int], None] | None = None,
    on_batch_start: Callable[[int], FaultPlan | None] | None = None,
    checkpoint_io_retries: int = 2,
    checkpoint_io_backoff_s: float = 0.05,
    checkpoint_io_fault: Callable[[str, int, int], None] | None = None,
) -> ServeResult:
    """Serve a recorded stream with per-batch durable checkpoints.

    Parameters
    ----------
    stream_path:
        A recorded stream written by
        :func:`repro.synth.stream.record_stream`.
    checkpoint_dir:
        Durable run directory (cursor + state generations + run
        manifest); an existing valid checkpoint there is resumed
        automatically.
    batch_size:
        Checkpoint cadence: a batch is the smallest run of consecutive
        whole days holding at least this many baskets (days are atomic,
        so the resume cursor points just past a whole day's line).
    n_shards, parallel, timeout, fault_plan:
        Shard-pool shape; see :class:`~repro.serve.pool.ShardedMonitorPool`.
    config, beta, first_alarm_window:
        Scoring configuration (the same objects the offline protocol
        takes, so parity is comparing like with like); the pool's
        retry waves are ``config.retries``.
    status:
        Optional :class:`~repro.serve.api.StatusBoard` kept current
        with phase/counters/cursor/scores.
    publisher:
        Optional :class:`~repro.obs.export.MetricsPublisher` (the live
        telemetry plane, DESIGN.md §12).  The loop keeps the position
        gauges (queue depth, lag in days, commit index) current and
        ticks the publisher after every commit; the publisher decides
        whether the interval warrants an actual publish.  A cursor
        fallback triggers its flight recorder.  Scores are bit-
        identical with and without a publisher attached.
    max_batches:
        Stop (resumable, ``finished=False``) after this many data
        batches this run — deterministic partial runs for tests/CI.
    should_stop:
        Polled between batches; returning True stops the run cleanly
        after the current batch's commit (the CLI wires SIGTERM here).
    on_state_written:
        Test hook invoked *between* a batch's state write and its
        cursor commit — raising from it simulates the worst-case crash
        point for the rework-bound tests.
    on_batch_start:
        Chaos hook called with the commit index a batch is about to
        commit as, *before* the batch is processed.  Returning a
        :class:`~repro.runtime.faults.FaultPlan` installs it on the
        shard pool for exactly that batch (the base ``fault_plan`` is
        restored afterwards); returning ``None`` leaves the base plan.
        The soak harness keys its per-batch worker-crash and slow-shard
        injections (and its rate pacing) on this hook.
    checkpoint_io_retries, checkpoint_io_backoff_s, checkpoint_io_fault:
        Transient checkpoint-I/O budget; see
        :class:`~repro.serve.checkpoint.ServeCheckpoint`.  A write that
        stays broken past the budget raises
        :class:`~repro.serve.checkpoint.CheckpointIOExhausted` —
        resumable, rework <= 1 batch, like any crash.

    Raises
    ------
    ConfigError
        On invalid serving parameters.
    SchemaError
        If the stream file is not a valid recorded stream.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if max_batches is not None and max_batches < 1:
        raise ConfigError(f"max_batches must be >= 1, got {max_batches}")
    stream = Path(stream_path)
    config = config if config is not None else ExperimentConfig()
    header = read_stream_header(stream)
    calendar = stream_calendar(header)
    serve_fp = config_fingerprint(
        {
            **dataclasses.asdict(config),
            "beta": beta,
            "first_alarm_window": first_alarm_window,
            "n_shards": n_shards,
        }
    )
    checkpoint = ServeCheckpoint(
        checkpoint_dir,
        io_retries=checkpoint_io_retries,
        io_backoff_s=checkpoint_io_backoff_s,
        io_fault=checkpoint_io_fault,
    )
    registry = get_metrics()
    tracer = get_tracer()

    counters = ServeCounters()
    pool: ShardedMonitorPool | None = None
    resumed = False
    reworked = 0
    commit_index = 0
    #: The commit whose base the next journal extends (None: no base
    #: in this directory yet, so the next commit writes one).
    base_index: int | None = None
    #: Byte offset just past the last consumed day line (0: none yet).
    stream_offset = 0
    day_batches_consumed = 0
    last_day_consumed = -1
    already_finished = False

    # ------------------------------------------------------------------
    # Resume (or fall back to the stream head on an invalid cursor).
    # ------------------------------------------------------------------
    loaded = None
    #: SHA-1 of the stream bytes the state consumed: the header and every
    #: day line up to ``stream_offset`` (nothing yet on a fresh start).
    digest = hashlib.sha1()
    #: Where the replay starts: the cursor's offset, or 0 (the head).
    start = 0
    try:
        cursor = checkpoint.read_cursor()
        if cursor is not None:
            loaded = checkpoint.load(
                cursor, serve_fingerprint=serve_fp, n_shards=n_shards
            )
            pool = ShardedMonitorPool.from_snapshots(
                loaded.shard_payloads,
                loaded.shard_journals,
                parallel=parallel,
                retries=config.retries,
                timeout=timeout,
                fault_plan=fault_plan,
            )
            # The shards are aligned, so one clock: the day of the line
            # that ends at the cursor's offset.
            try:
                start = check_replay_start(
                    stream,
                    cursor.stream_offset,
                    last_day=pool.monitors[0].last_day_seen,
                )
            except ConfigError as exc:
                raise CursorInvalid(f"cursor stream_offset: {exc}") from exc
            cursor.check_stream(stream_fingerprint(stream, start, digest=digest))
            if cursor.finished and _holds_data_past(stream, start):
                raise CursorInvalid(
                    f"the stream grew past byte {start}, where the finished "
                    "run sealed it"
                )
    except (CursorInvalid, SnapshotError) as exc:
        logger.warning(
            "cursor invalid on resume, restarting from stream head: %s", exc
        )
        registry.counter(obs_metrics.SERVE_CURSOR_INVALID).inc()
        if publisher is not None:
            # A cursor fallback is a post-mortem-worthy surprise: flush
            # the flight ring so the artifact records what preceded it.
            publisher.record_event("cursor_invalid", detail=str(exc))
            publisher.trigger_flight("cursor_invalid", commit_index=0)
        loaded = None
        pool = None
        digest, start = hashlib.sha1(), 0
    if loaded is not None and pool is not None:
        cursor = loaded.cursor
        counters = ServeCounters.from_dict(cursor.counters)
        commit_index = cursor.commit_index
        base_index = cursor.base_index
        stream_offset = cursor.stream_offset
        day_batches_consumed = cursor.day_batches_consumed
        resumed = True
        already_finished = cursor.finished
        if loaded.orphaned_state and not already_finished:
            # The previous run crashed between state write and cursor
            # commit: the batch after the committed one is reworked now.
            reworked = 1
            registry.counter(obs_metrics.SERVE_BATCHES_REWORKED).inc()
            logger.info(
                "resume found an uncommitted state write after commit %d; "
                "reworking exactly one batch",
                commit_index,
            )
    if pool is None:
        pool = ShardedMonitorPool.create(
            config.grid(calendar),
            n_shards=n_shards,
            beta=beta,
            significance=config.significance(),
            counting=config.counting,
            first_alarm_window=first_alarm_window,
            parallel=parallel,
            retries=config.retries,
            timeout=timeout,
            fault_plan=fault_plan,
        )
    active_pool = pool

    if status is not None:
        status.set_run_info(
            stream=str(stream),
            serve_fingerprint=serve_fp,
            n_shards=n_shards,
            batch_size=batch_size,
            parallel=parallel,
        )
        if resumed:
            status.set_run_info(stream_fingerprint=digest_fingerprint(digest))
        status.set_phase("resuming" if resumed else "starting")
        status.set_counters(counters.as_dict())
        status.set_checkpoint(
            commit_index=commit_index,
            day_batches_consumed=day_batches_consumed,
            finished=already_finished,
        )
        status.set_scores(*monitor_scores(active_pool.monitors))

    def make_cursor(base: int, finished: bool) -> ServeCursor:
        return ServeCursor(
            commit_index=commit_index,
            base_index=base,
            stream_offset=stream_offset,
            day_batches_consumed=day_batches_consumed,
            counters=counters.as_dict(),
            stream_fingerprint=digest_fingerprint(digest),
            serve_fingerprint=serve_fp,
            n_shards=n_shards,
            finished=finished,
        )

    def build_result(*, batches_this_run: int, finished: bool) -> ServeResult:
        scores, flags, alarm_windows = monitor_scores(active_pool.monitors)
        return ServeResult(
            scores=scores,
            flags=flags,
            alarm_windows=alarm_windows,
            counters=counters,
            batches_this_run=batches_this_run,
            batches_reworked=reworked,
            day_batches_consumed=day_batches_consumed,
            resumed=resumed,
            finished=finished,
            checkpoint_dir=checkpoint.directory,
        )

    if already_finished:
        # The stream was already served to completion: a no-op resume.
        logger.info(
            "checkpoint at %s is already finished; nothing to serve",
            checkpoint.directory,
        )
        if status is not None:
            status.set_phase("finished")
        return build_result(batches_this_run=0, finished=True)

    # ------------------------------------------------------------------
    # The loop proper.
    # ------------------------------------------------------------------
    batches_this_run = 0
    interrupted = False

    def shard_context() -> dict[str, object]:
        """Per-shard table for the live plane (computed at publish
        cadence only — the publisher resolves this lazily)."""
        return {
            "stream": str(stream),
            "n_shards": n_shards,
            "shards": [
                {"shard": i, "customers": len(monitor.customers())}
                for i, monitor in enumerate(active_pool.monitors)
            ],
        }

    def commit_state(finished: bool, new_base: bool) -> None:
        """State first, hook, then the cursor — the one commit point.

        The state is a new base when ``new_base`` is set (the batch
        closed a window, or the run is being sealed) or the directory
        has none yet; otherwise it is the batch's journal on top of the
        current base.
        """
        nonlocal base_index
        base = None if new_base else base_index
        with tracer.span(
            obs_metrics.SPAN_SERVE_CHECKPOINT,
            commit=commit_index,
            finished=finished,
            journal=base is not None,
        ):
            if base is None:
                checkpoint.write_state(commit_index, active_pool.snapshot_shards())
                base = base_index = commit_index
            else:
                checkpoint.write_state(
                    commit_index,
                    active_pool.journal_shards(),
                    base_index=base,
                )
            if on_state_written is not None:
                on_state_written(commit_index)
            checkpoint.commit(make_cursor(base, finished))
        if status is not None:
            status.set_run_info(stream_fingerprint=digest_fingerprint(digest))

    def process_batch(group: list[DayBatch]) -> None:
        nonlocal commit_index, stream_offset, day_batches_consumed
        nonlocal last_day_consumed
        n_baskets = sum(b.n_baskets for b in group)
        if on_batch_start is not None:
            batch_plan = on_batch_start(commit_index + 1)
            active_pool.set_fault_plan(
                batch_plan if batch_plan is not None else fault_plan
            )
        if status is not None:
            status.set_phase("serving")
        with timed_stage(
            obs_metrics.STAGE_SERVE_BATCH,
            days=len(group),
            baskets=n_baskets,
        ):
            reports = active_pool.process_batch(group)
        counters.ingested += n_baskets
        registry.counter(obs_metrics.SERVE_INGESTED).inc(n_baskets)
        scored_before = counters.scored
        flagged_before = counters.flagged
        _apply_reports(reports, counters, active_pool, status)
        registry.counter(obs_metrics.SERVE_SCORED).inc(
            counters.scored - scored_before
        )
        registry.counter(obs_metrics.SERVE_FLAGGED).inc(
            counters.flagged - flagged_before
        )
        stream_offset = group[-1].end
        day_batches_consumed += len(group)
        last_day_consumed = group[-1].day
        commit_index += 1
        counters.checkpointed += 1
        if status is not None:
            status.set_phase("checkpointing")
        commit_state(finished=False, new_base=bool(reports))
        registry.counter(obs_metrics.SERVE_CHECKPOINTED).inc()
        if status is not None:
            status.set_counters(counters.as_dict())
            status.set_checkpoint(
                commit_index=commit_index,
                day_batches_consumed=day_batches_consumed,
                finished=False,
            )
        if publisher is not None:
            registry.gauge(obs_metrics.SERVE_QUEUE_DEPTH).set(n_baskets)
            registry.gauge(obs_metrics.SERVE_COMMIT_INDEX).set(commit_index)
            # Lag = calendar days not yet committed (days with no
            # baskets are absent from the stream, so counting batches
            # would never reach zero).
            registry.gauge(obs_metrics.SERVE_LAG_DAYS).set(
                max(calendar.n_days - 1 - last_day_consumed, 0)
            )
            publisher.tick(registry, context=shard_context)

    with tracer.span(
        obs_metrics.SPAN_SERVE_RUN,
        stream=str(stream),
        n_shards=n_shards,
        resumed=resumed,
    ):
        pending: list[DayBatch] = []
        pending_baskets = 0
        for day_batch in replay_stream(stream, start=start, digest=digest):
            pending.append(day_batch)
            pending_baskets += day_batch.n_baskets
            if pending_baskets < batch_size:
                continue
            process_batch(pending)
            batches_this_run += 1
            pending = []
            pending_baskets = 0
            if max_batches is not None and batches_this_run >= max_batches:
                interrupted = True
                break
            if should_stop is not None and should_stop():
                interrupted = True
                break
        if not interrupted:
            if pending:
                process_batch(pending)
                batches_this_run += 1
            # End of stream: close the remaining windows and seal the
            # run under its own commit index (never overwriting the
            # committed state in place — a crash mid-seal must leave
            # the last data commit authoritative).
            final_reports = active_pool.finish()
            _apply_reports(final_reports, counters, active_pool, status)
            commit_index += 1
            commit_state(finished=True, new_base=True)
            if status is not None:
                status.set_counters(counters.as_dict())
                status.set_checkpoint(
                    commit_index=commit_index,
                    day_batches_consumed=day_batches_consumed,
                    finished=True,
                )
                status.set_phase("finished")
        elif status is not None:
            status.set_phase("interrupted")

    manifest = build_manifest(
        "serve",
        config=config,
        dataset_fingerprint=digest_fingerprint(digest),
        execution=active_pool.last_report,
        tracer=tracer,
        metrics=registry,
    )
    write_manifest(checkpoint.directory, manifest)
    if status is not None:
        status.set_manifest(manifest.to_dict())
    if publisher is not None:
        # Final forced publish so the last snapshot reflects the sealed
        # run even when the interval had not elapsed.
        registry.gauge(obs_metrics.SERVE_COMMIT_INDEX).set(commit_index)
        # The sealed run has consumed every recorded day: lag is zero by
        # definition, whatever the last day's index was.
        registry.gauge(obs_metrics.SERVE_LAG_DAYS).set(0)
        registry.gauge(obs_metrics.SERVE_QUEUE_DEPTH).set(0)
        publisher.tick(registry, force=True, context=shard_context)
    logger.info(
        "served %d batch(es) this run (%d reworked): ingested=%d scored=%d "
        "flagged=%d checkpointed=%d%s",
        batches_this_run,
        reworked,
        counters.ingested,
        counters.scored,
        counters.flagged,
        counters.checkpointed,
        "" if interrupted else " [stream complete]",
    )
    return build_result(
        batches_this_run=batches_this_run, finished=not interrupted
    )
