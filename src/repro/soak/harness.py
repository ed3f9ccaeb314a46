"""The chaos/soak harness: fault-scheduled load replay against serving.

:func:`run_soak` replays a recorded basket stream
(:mod:`repro.synth.stream`) through :func:`repro.serve.loop.serve_stream`
under a :class:`~repro.soak.plan.SoakPlan` (loops or wall-clock
duration, optional basket-rate pacing) while a deterministic
:class:`~repro.soak.plan.ChaosSchedule` injects serve-layer faults
mid-soak.  The run is executed as a sequence of **legs** — bounded
``serve_stream`` invocations (``max_batches``) that stop exactly where
the next fault is scheduled — so every fault lands at a known commit
index and every recovery is observed in isolation:

* ``kill_resume`` — :class:`SimulatedKill` raised from
  ``on_state_written``, the worst-case crash point between a batch's
  state write and its cursor commit; the resume leg must report exactly
  one reworked batch;
* ``tear_cursor`` / ``tear_state`` — :func:`~repro.runtime.faults.tear_file`
  applied to committed checkpoint files between legs; the next leg must
  fall back to the stream head (``serve.cursor_invalid``);
* ``ckpt_io`` — a transient :class:`OSError` raised from the
  checkpoint's I/O fault hook, cleared by the bounded
  retry-with-backoff in :class:`~repro.serve.checkpoint.ServeCheckpoint`.

After every fault the harness verifies the runbook invariants (resume
succeeds, measured rework stays within the per-site bound, cumulative
counters never regress within a head-run) and at the end of every loop
it checks **score parity**: the served fingerprint must equal the
offline sweep's, faults and all.  Latency is read from the
``serve.batch_s`` histogram the serving loop already records; the
resulting p50/p95/p99 (milliseconds) and overall throughput are held
against the plan's SLO budgets.  Violations do not abort the soak — they
are collected into the report (``passed=False``) so the bench artifact
still captures what happened.
"""

from __future__ import annotations

import logging
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import ExperimentConfig
from repro.errors import ConfigError, SoakError
from repro.obs import MetricsRegistry, get_metrics, get_tracer, timed_stage, use_metrics
from repro.obs import metrics as obs_metrics
from repro.runtime.faults import tear_file
from repro.serve.checkpoint import ServeCheckpoint
from repro.serve.loop import ServeResult, offline_sweep_stream, serve_stream
from repro.soak.plan import (
    SITE_CKPT_IO,
    SITE_KILL_RESUME,
    SITE_TEAR_CURSOR,
    SITE_TEAR_STATE,
    ChaosCell,
    ChaosSchedule,
    SoakPlan,
)
from repro.synth.stream import replay_stream, stream_fingerprint

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.obs.export import MetricsPublisher
    from repro.serve.api import StatusBoard

__all__ = [
    "FaultOutcome",
    "LoopOutcome",
    "SimulatedKill",
    "SoakReport",
    "run_soak",
    "stream_shape",
]

logger = logging.getLogger(__name__)


class SimulatedKill(SoakError):
    """Raised by the harness from ``on_state_written`` to simulate a
    SIGKILL between a batch's state write and its cursor commit.  Never
    escapes :func:`run_soak` — the next leg resumes through it."""


@dataclass(frozen=True)
class FaultOutcome:
    """What one scheduled fault did, and what its recovery cost."""

    #: 1-based commit index the fault was scheduled at.
    batch: int
    #: One of the :data:`~repro.soak.plan.CHAOS_SITES`.
    site: str
    #: Whether the injection demonstrably fired (counter delta, raised
    #: hook, or observed stall) — a fault that silently failed to inject
    #: is itself a soak violation.
    injected: bool
    #: Data batches re-processed because of this fault (crash-class
    #: faults must stay <= 1; torn-checkpoint faults rework the
    #: committed prefix the fallback replays).
    rework_batches: int
    detail: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "batch": self.batch,
            "site": self.site,
            "injected": self.injected,
            "rework_batches": self.rework_batches,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class LoopOutcome:
    """One full replay of the stream under the chaos schedule."""

    loop_index: int
    legs: int
    fingerprint: str
    parity_ok: bool
    faults: tuple[FaultOutcome, ...]
    #: Final cumulative runbook counters of the loop's last head-run.
    counters: dict[str, int]

    def as_dict(self) -> dict[str, object]:
        return {
            "loop_index": self.loop_index,
            "legs": self.legs,
            "fingerprint": self.fingerprint,
            "parity_ok": self.parity_ok,
            "faults": [fault.as_dict() for fault in self.faults],
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class SoakReport:
    """Everything one :func:`run_soak` measured and verified."""

    stream: str
    stream_fingerprint: str
    reference_fingerprint: str
    plan: SoakPlan
    chaos: ChaosSchedule | None
    n_batches_per_loop: int
    baskets_per_loop: int
    loops: tuple[LoopOutcome, ...]
    legs: int
    faults_injected: int
    baskets_played: int
    elapsed_s: float
    throughput_baskets_s: float
    #: ``count`` plus p50/p95/p99/max of per-batch score latency, ms.
    latency_ms: dict[str, float]
    #: Per-budget verdicts: ``{"p99": {"budget_ms": .., "actual_ms": ..,
    #: "ok": ..}, "throughput": {...}}`` — only budgets the plan set.
    slo: dict[str, dict[str, object]]
    violations: tuple[str, ...]
    passed: bool

    def to_payload(self) -> dict[str, object]:
        """JSON-safe form (the ``BENCH_serve.json`` ``soak`` scenario)."""
        chaos_payload: dict[str, object] | None = None
        if self.chaos is not None:
            chaos_payload = {
                "sites": list(self.chaos.sites()),
                "cells": [
                    {"batch": cell.batch, "site": cell.site}
                    for cell in self.chaos.cells()
                ],
                "n_faults": self.chaos.n_faults,
            }
        return {
            "stream": self.stream,
            "stream_fingerprint": self.stream_fingerprint,
            "reference_fingerprint": self.reference_fingerprint,
            "plan": {
                "mode": self.plan.mode,
                "loops": self.plan.loops,
                "duration_s": self.plan.duration_s,
                "rate": self.plan.rate,
                "batch_size": self.plan.batch_size,
                "n_shards": self.plan.n_shards,
            },
            "chaos": chaos_payload,
            "n_batches_per_loop": self.n_batches_per_loop,
            "baskets_per_loop": self.baskets_per_loop,
            "loops_completed": len(self.loops),
            "legs": self.legs,
            "faults_injected": self.faults_injected,
            "baskets_played": self.baskets_played,
            "elapsed_s": self.elapsed_s,
            "throughput_baskets_s": self.throughput_baskets_s,
            "latency_ms": dict(self.latency_ms),
            "slo": {k: dict(v) for k, v in self.slo.items()},
            "loops": [loop.as_dict() for loop in self.loops],
            "violations": list(self.violations),
            "passed": self.passed,
        }


def stream_shape(
    stream_path: str | Path, batch_size: int
) -> tuple[int, int]:
    """``(n_batches, n_baskets)`` one serve pass over a stream produces.

    Mirrors the serving loop's batching rule exactly: consecutive whole
    days accumulate until at least ``batch_size`` baskets, and a final
    short batch flushes the remainder.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n_batches = 0
    pending = 0
    total = 0
    for day_batch in replay_stream(stream_path):
        pending += day_batch.n_baskets
        total += day_batch.n_baskets
        if pending >= batch_size:
            n_batches += 1
            pending = 0
    if pending:
        n_batches += 1
    return n_batches, total


class _Pacer:
    """Batch-granular basket-rate cap.

    The serving loop's ``on_batch_start`` hook has batch granularity, so
    the cap is approximated as one permit every ``batch_size / rate``
    seconds — accurate to within one batch, which is the finest the
    checkpoint cadence resolves anyway.
    """

    def __init__(self, rate: float | None, batch_size: int) -> None:
        self._interval = batch_size / rate if rate else 0.0
        self._next: float | None = None

    def pace(self) -> None:
        if not self._interval:
            return
        now = time.perf_counter()
        if self._next is not None and now < self._next:
            time.sleep(self._next - now)
            now = self._next
        self._next = now + self._interval


class _LoopRunner:
    """One chaos loop: legs, injections, invariant checks."""

    def __init__(
        self,
        *,
        loop_index: int,
        stream: Path,
        checkpoint_dir: Path,
        plan: SoakPlan,
        chaos: ChaosSchedule | None,
        config: ExperimentConfig,
        beta: float,
        first_alarm_window: int,
        registry: MetricsRegistry,
        reference_fingerprint: str,
        n_batches: int,
        status: StatusBoard | None = None,
        publisher: MetricsPublisher | None = None,
    ) -> None:
        self.loop_index = loop_index
        self.stream = stream
        self.checkpoint_dir = checkpoint_dir
        self.plan = plan
        self.chaos = chaos
        self.config = config
        self.beta = beta
        self.first_alarm_window = first_alarm_window
        self.registry = registry
        self.reference_fingerprint = reference_fingerprint
        self.n_batches = n_batches
        self.status = status
        self.publisher = publisher
        self.pacer = _Pacer(plan.rate, plan.batch_size)
        self.legs = 0
        self.leg_wall_s = 0.0
        self.committed = 0
        self.faults: list[FaultOutcome] = []
        self.violations: list[str] = []
        #: Cumulative-counter baseline of the current head-run; ``None``
        #: right after a restart-from-head fallback (counters reset).
        self._baseline: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Leg machinery
    # ------------------------------------------------------------------
    def _pace_hook(self, commit_index: int) -> None:
        self.pacer.pace()

    def _run_leg(
        self,
        *,
        max_batches: int | None = None,
        on_state_written: Callable[[int], None] | None = None,
        io_fault: Callable[[str, int, int], None] | None = None,
    ) -> ServeResult:
        """One bounded ``serve_stream`` invocation against the loop dir."""
        self.legs += 1
        self.registry.counter(obs_metrics.SOAK_LEGS).inc()
        started = time.perf_counter()
        try:
            with timed_stage(
                obs_metrics.STAGE_SOAK_LEG,
                loop=self.loop_index,
                leg=self.legs,
            ):
                return serve_stream(
                    self.stream,
                    self.checkpoint_dir,
                    batch_size=self.plan.batch_size,
                    n_shards=self.plan.n_shards,
                    config=self.config,
                    beta=self.beta,
                    first_alarm_window=self.first_alarm_window,
                    status=self.status,
                    publisher=self.publisher,
                    max_batches=max_batches,
                    on_batch_start=self._pace_hook,
                    on_state_written=on_state_written,
                    checkpoint_io_retries=self.plan.checkpoint_io_retries,
                    checkpoint_io_fault=io_fault,
                )
        finally:
            self.leg_wall_s += time.perf_counter() - started

    def _violation(self, message: str) -> None:
        self.violations.append(f"loop {self.loop_index}: {message}")
        logger.warning("soak violation: %s", self.violations[-1])

    def _after_leg(self, result: ServeResult, expected_commit: int) -> None:
        """Runbook invariants after a leg that ended at a known commit."""
        counters = result.counters.as_dict()
        if self._baseline is not None:
            for key, previous in self._baseline.items():
                if counters.get(key, 0) < previous:
                    self._violation(
                        f"counter {key!r} regressed within a head-run: "
                        f"{previous} -> {counters.get(key, 0)}"
                    )
        self._baseline = counters
        if counters["checkpointed"] != expected_commit:
            self._violation(
                f"leg {self.legs} ended at commit "
                f"{counters['checkpointed']}, expected {expected_commit}"
            )
        self.committed = counters["checkpointed"]

    def _record(
        self,
        cell: ChaosCell,
        *,
        injected: bool,
        rework: int,
        detail: str,
        rework_bound: int,
    ) -> None:
        if injected:
            self.registry.counter(obs_metrics.SOAK_FAULTS_INJECTED).inc()
            if self.publisher is not None:
                # A fired fault is the flight recorder's headline
                # trigger: flush the ring so the artifact names the
                # schedule cell and carries the lead-up telemetry.
                self.publisher.record_event(
                    "fault_injected",
                    site=cell.site,
                    batch=cell.batch,
                    loop=self.loop_index,
                    detail=detail,
                )
                self.publisher.trigger_flight(
                    f"fault:{cell.site}", commit_index=cell.batch
                )
        else:
            self._violation(f"fault {cell.label()} did not inject")
        if rework > rework_bound:
            self._violation(
                f"fault {cell.label()} cost {rework} reworked batch(es), "
                f"bound is {rework_bound}"
            )
        self.faults.append(
            FaultOutcome(
                batch=cell.batch,
                site=cell.site,
                injected=injected,
                rework_batches=rework,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Site handlers — each leaves a committed cursor at ``cell.batch``
    # (or at commit 1 after a torn-checkpoint fallback probe).
    # ------------------------------------------------------------------
    def _kill_leg(self, cell: ChaosCell, remaining: int) -> None:
        def killer(commit_index: int) -> None:
            if commit_index == cell.batch:
                raise SimulatedKill(
                    f"simulated kill between state write and cursor commit "
                    f"of batch {commit_index}"
                )

        killed = False
        try:
            self._run_leg(max_batches=remaining, on_state_written=killer)
        except SimulatedKill:
            killed = True
        if not killed:
            self._violation(
                f"kill scheduled at batch {cell.batch} never fired"
            )
        # The killed leg left batch ``cell.batch`` state-written but
        # uncommitted: the resume probe must rework exactly that batch.
        result = self._run_leg(max_batches=1)
        if not result.resumed:
            self._violation(
                f"resume after kill at batch {cell.batch} did not resume "
                "from the committed cursor"
            )
        self._after_leg(result, cell.batch)
        self._record(
            cell,
            injected=killed,
            rework=result.batches_reworked,
            detail="killed between state write and cursor commit; resumed",
            rework_bound=1,
        )

    def _tear_leg(self, cell: ChaosCell, remaining: int) -> None:
        result = self._run_leg(max_batches=remaining)
        self._after_leg(result, cell.batch)
        committed_before = self.committed
        checkpoint = ServeCheckpoint(self.checkpoint_dir)
        cursor = checkpoint.read_cursor()
        if cursor is None:
            raise SoakError(
                f"no committed cursor to tear after batch {cell.batch}"
            )
        # Tear the newest cursor, the one a resume reads, or the newest
        # committed state file: the journal when the last commit wrote
        # one, else its base's first shard (a window close, the first
        # commit, or the finish seal when the cell lands on the stream's
        # final batch).
        base = cursor.base_index
        if cell.site == SITE_TEAR_CURSOR:
            target = checkpoint.cursor_file(cursor.commit_index)
        elif cursor.commit_index == base:
            target = checkpoint.shard_path(base, 0)
        else:
            target = checkpoint.journal_path(base, cursor.commit_index)
        torn = tear_file(target, keep_fraction=0.5)
        before_invalid = self.registry.counter_value(
            obs_metrics.SERVE_CURSOR_INVALID
        )
        # The fallback restarts the cumulative counters from zero.
        self._baseline = None
        probe = self._run_leg(max_batches=1)
        fell_back = (
            self.registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID)
            == before_invalid + 1
        )
        if probe.resumed:
            self._violation(
                f"torn {cell.site} at batch {cell.batch} did not trigger "
                "the restart-from-head fallback"
            )
        self._after_leg(probe, 1)
        self._record(
            cell,
            injected=fell_back,
            # The fallback replays the committed prefix: that is the
            # rework this corruption cost (schedule tears early — the
            # default smoke tears at batch 1 — to keep it at one batch).
            rework=committed_before,
            detail=f"tore {torn.name}; fell back to stream head",
            rework_bound=committed_before,
        )

    def _ckpt_io_leg(self, cell: ChaosCell, remaining: int) -> None:
        hits: list[int] = []

        def io_fault(operation: str, commit_index: int, attempt: int) -> None:
            if (
                operation == "write_state"
                and commit_index == cell.batch
                and attempt == 0
            ):
                hits.append(attempt)
                raise OSError(
                    cell.errno_code, "injected checkpoint volume fault"
                )

        before = self.registry.counter_value(
            obs_metrics.SERVE_CHECKPOINT_IO_RETRIES
        )
        result = self._run_leg(max_batches=remaining, io_fault=io_fault)
        retried = (
            self.registry.counter_value(
                obs_metrics.SERVE_CHECKPOINT_IO_RETRIES
            )
            - before
        )
        self._after_leg(result, cell.batch)
        self._record(
            cell,
            injected=bool(hits) and retried > 0,
            rework=result.batches_reworked,
            detail=f"errno {cell.errno_code} on state write; "
            f"{retried} I/O retry(ies) cleared it",
            rework_bound=1,
        )

    # ------------------------------------------------------------------
    def run(self) -> LoopOutcome:
        if self.checkpoint_dir.exists():
            raise ConfigError(
                f"soak loop directory already exists: {self.checkpoint_dir}"
            )
        handlers: dict[str, Callable[[ChaosCell, int], None]] = {
            SITE_KILL_RESUME: self._kill_leg,
            SITE_TEAR_CURSOR: self._tear_leg,
            SITE_TEAR_STATE: self._tear_leg,
            SITE_CKPT_IO: self._ckpt_io_leg,
        }
        cells = self.chaos.cells() if self.chaos is not None else ()
        for cell in cells:
            remaining = cell.batch - self.committed
            if remaining < 1:
                raise SoakError(
                    f"chaos cell {cell.label()} is behind the committed "
                    f"cursor ({self.committed}) — schedule out of order"
                )
            handlers[cell.site](cell, remaining)
        final = self._run_leg()
        if not final.finished:
            self._violation("final leg did not serve the stream to the end")
        # ``checkpointed`` counts data batches only — the finish seal
        # commits under its own index but is not a data batch.
        self._after_leg(final, self.n_batches)
        fingerprint = final.fingerprint()
        parity_ok = fingerprint == self.reference_fingerprint
        if not parity_ok:
            self._violation(
                f"score fingerprint {fingerprint} != offline reference "
                f"{self.reference_fingerprint}"
            )
        return LoopOutcome(
            loop_index=self.loop_index,
            legs=self.legs,
            fingerprint=fingerprint,
            parity_ok=parity_ok,
            faults=tuple(self.faults),
            counters=final.counters.as_dict(),
        )


def run_soak(
    stream_path: str | Path,
    workdir: str | Path,
    plan: SoakPlan,
    chaos: ChaosSchedule | None = None,
    *,
    config: ExperimentConfig | None = None,
    beta: float = 0.5,
    first_alarm_window: int = 0,
    keep_checkpoints: bool = False,
    status: StatusBoard | None = None,
    publisher: MetricsPublisher | None = None,
) -> SoakReport:
    """Soak the serving layer with scheduled faults; verify and measure.

    Parameters
    ----------
    stream_path:
        A recorded stream (:func:`repro.synth.stream.record_stream`).
    workdir:
        Scratch directory for per-loop checkpoint dirs
        (``loop-000/``, ``loop-001/``, ...); created if missing.  Loop
        dirs are deleted after each loop unless ``keep_checkpoints``.
    plan:
        Load shape and SLO budgets (:class:`~repro.soak.plan.SoakPlan`).
    chaos:
        Fault schedule, re-applied on every loop; ``None`` soaks
        fault-free (a pure load/SLO run).
    config, beta, first_alarm_window:
        Scoring configuration, shared with the offline reference so
        parity compares like with like.
    status:
        Optional :class:`~repro.serve.api.StatusBoard` the serving legs
        keep current — the soak CLI binds it to a port so ``/metrics``
        is scrapeable mid-run.
    publisher:
        Optional :class:`~repro.obs.export.MetricsPublisher` (the live
        telemetry plane).  The harness fills its SLO budgets from the
        plan when unset, the serving legs tick it per batch, every
        injected fault and any end-of-run SLO violation triggers its
        flight recorder, and a final forced publish captures the
        closing state.

    Raises
    ------
    ConfigError
        If the schedule does not fit the stream (a cell beyond the last
        batch) or schedules I/O faults with a zero retry budget.

    Notes
    -----
    Invariant violations do **not** raise — they are collected into
    :attr:`SoakReport.violations` (``passed=False``) so the bench
    artifact records the failure rather than vanishing with it.
    """
    stream = Path(stream_path)
    workdir = Path(workdir)
    config = config if config is not None else ExperimentConfig()
    n_batches, n_baskets = stream_shape(stream, plan.batch_size)
    if n_batches < 1:
        raise ConfigError(f"stream {stream} holds no data batches")
    if chaos is not None:
        if chaos.max_batch > n_batches:
            raise ConfigError(
                f"chaos schedule targets batch {chaos.max_batch} but the "
                f"stream only yields {n_batches} batch(es) at batch_size "
                f"{plan.batch_size}"
            )
        if chaos.io_errors and plan.checkpoint_io_retries < 1:
            raise ConfigError(
                "ckpt_io faults need checkpoint_io_retries >= 1 to clear"
            )
    reference = offline_sweep_stream(
        stream, config=config, beta=beta, first_alarm_window=first_alarm_window
    )
    reference_fp = reference.fingerprint()
    stream_fp = stream_fingerprint(stream)
    workdir.mkdir(parents=True, exist_ok=True)
    if publisher is not None and publisher.slo_budgets_ms is None:
        # Burn rate is defined against the plan's budgets unless the
        # caller already configured its own.
        publisher.slo_budgets_ms = plan.slo_budgets_ms()

    outer = get_metrics()
    registry = MetricsRegistry()
    loops: list[LoopOutcome] = []
    violations: list[str] = []
    legs = 0
    serving_wall_s = 0.0
    started = time.perf_counter()
    with use_metrics(registry):
        with get_tracer().span(
            obs_metrics.SPAN_SOAK_RUN,
            stream=str(stream),
            mode=plan.mode,
            faults=chaos.n_faults if chaos is not None else 0,
        ):
            loop_index = 0
            while True:
                runner = _LoopRunner(
                    loop_index=loop_index,
                    stream=stream,
                    checkpoint_dir=workdir / f"loop-{loop_index:03d}",
                    plan=plan,
                    chaos=chaos,
                    config=config,
                    beta=beta,
                    first_alarm_window=first_alarm_window,
                    registry=registry,
                    reference_fingerprint=reference_fp,
                    n_batches=n_batches,
                    status=status,
                    publisher=publisher,
                )
                outcome = runner.run()
                loops.append(outcome)
                violations.extend(runner.violations)
                legs += runner.legs
                serving_wall_s += runner.leg_wall_s
                registry.counter(obs_metrics.SOAK_LOOPS).inc()
                if not keep_checkpoints:
                    shutil.rmtree(runner.checkpoint_dir, ignore_errors=True)
                loop_index += 1
                elapsed = time.perf_counter() - started
                if plan.mode == "loops" and loop_index >= plan.loops:
                    break
                if plan.mode == "duration" and elapsed >= plan.duration_s:
                    break
    elapsed_s = time.perf_counter() - started

    batch_hist = registry.histogram(obs_metrics.STAGE_SERVE_BATCH)
    hist_summary = batch_hist.summary()
    latency_ms: dict[str, float] = {
        "count": float(hist_summary["count"]),
        "p50": hist_summary["p50"] * 1000.0,
        "p95": hist_summary["p95"] * 1000.0,
        "p99": hist_summary["p99"] * 1000.0,
        "max": hist_summary["max"] * 1000.0,
    }
    baskets_played = registry.counter_value(obs_metrics.SERVE_INGESTED)
    throughput = (
        baskets_played / serving_wall_s if serving_wall_s > 0 else 0.0
    )

    slo: dict[str, dict[str, object]] = {}
    for quantile, budget in plan.slo_budgets_ms().items():
        actual = latency_ms[quantile]
        ok = actual <= budget
        slo[quantile] = {"budget_ms": budget, "actual_ms": actual, "ok": ok}
        if not ok:
            registry.counter(obs_metrics.SOAK_SLO_VIOLATIONS).inc()
            violations.append(
                f"SLO: batch latency {quantile} {actual:.1f}ms exceeds "
                f"budget {budget:.1f}ms"
            )
    if plan.min_throughput is not None:
        ok = throughput >= plan.min_throughput
        slo["throughput"] = {
            "budget_baskets_s": plan.min_throughput,
            "actual_baskets_s": throughput,
            "ok": ok,
        }
        if not ok:
            registry.counter(obs_metrics.SOAK_SLO_VIOLATIONS).inc()
            violations.append(
                f"SLO: throughput {throughput:.1f} baskets/s below floor "
                f"{plan.min_throughput:.1f}"
            )

    slo_violations = [v for v in violations if v.startswith("SLO:")]
    if publisher is not None:
        if slo_violations:
            publisher.record_event(
                "slo_violation", violations=list(slo_violations)
            )
            publisher.trigger_flight(
                f"slo_violation:{slo_violations[0]}",
                commit_index=registry.counter_value(
                    obs_metrics.SERVE_CHECKPOINTED
                ),
            )
        # Close the stream with a forced publish so the last snapshot
        # reflects end-of-soak counters and burn.
        publisher.tick(registry, force=True)

    if getattr(outer, "enabled", False):
        # Fold the soak's private registry into whatever the session
        # installed (e.g. the CLI's --metrics-out sink).
        outer.merge(registry.dump())

    report = SoakReport(
        stream=str(stream),
        stream_fingerprint=stream_fp,
        reference_fingerprint=reference_fp,
        plan=plan,
        chaos=chaos,
        n_batches_per_loop=n_batches,
        baskets_per_loop=n_baskets,
        loops=tuple(loops),
        legs=legs,
        faults_injected=registry.counter_value(
            obs_metrics.SOAK_FAULTS_INJECTED
        ),
        baskets_played=baskets_played,
        elapsed_s=elapsed_s,
        throughput_baskets_s=throughput,
        latency_ms=latency_ms,
        slo=slo,
        violations=tuple(violations),
        passed=not violations,
    )
    logger.info(
        "soak %s: %d loop(s), %d leg(s), %d fault(s) injected, "
        "p99=%.1fms, %.1f baskets/s — %s",
        "PASSED" if report.passed else "FAILED",
        len(loops),
        legs,
        report.faults_injected,
        latency_ms["p99"],
        throughput,
        "no violations" if report.passed else "; ".join(violations),
    )
    return report
