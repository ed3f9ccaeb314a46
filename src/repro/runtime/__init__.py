"""The resilience layer: fault-tolerant execution, checkpoints, snapshots.

``repro.runtime`` makes the fast data plane a *dependable* one:

* :mod:`repro.runtime.executor` — :func:`~repro.runtime.executor.run_sharded`,
  the fault-isolating replacement for a bare ``ProcessPoolExecutor``
  used by the batch stability engine (retry with backoff, serial
  in-process degradation, structured
  :class:`~repro.runtime.executor.ExecutionReport`);
* :mod:`repro.runtime.checkpoint` —
  :class:`~repro.runtime.checkpoint.CheckpointJournal`, atomic
  journaling of finished sweep cells so interrupted evaluations resume
  without recomputation;
* :mod:`repro.runtime.snapshot` — versioned, columnar, checksummed
  serialisation of :class:`~repro.core.streaming.StabilityMonitor`
  state with an exact round-trip guarantee;
* :mod:`repro.runtime.faults` — deterministic fault injection (worker
  crashes, slow shards, torn files) for the resilience test harness.

Failure taxonomy (see DESIGN.md "Failure model & recovery"): worker
faults are *retried* then *degraded*; sweep kills are *resumed*;
monitor restarts are *restored*; corrupt state is *rejected* with
:class:`~repro.errors.CheckpointError` / :class:`~repro.errors.SnapshotError`.
"""

from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.executor import ExecutionReport, ShardOutcome, run_sharded
from repro.runtime.faults import FaultPlan, InjectedFault, tear_file
from repro.runtime.snapshot import (
    load_snapshot,
    restore_monitor,
    save_snapshot,
    snapshot_monitor,
)

__all__ = [
    "CheckpointJournal",
    "ExecutionReport",
    "ShardOutcome",
    "run_sharded",
    "FaultPlan",
    "InjectedFault",
    "tear_file",
    "snapshot_monitor",
    "restore_monitor",
    "save_snapshot",
    "load_snapshot",
]
