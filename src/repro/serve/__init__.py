"""repro.serve — streaming attrition scoring daemon.

The serving layer plays a recorded day-ordered basket stream
(:mod:`repro.synth.stream`) through customer-sharded
:class:`~repro.core.streaming.StabilityMonitor` instances, emits
stability scores and attrition alarms as windows close, and checkpoints
durably after every batch so a crash costs at most one batch of rework.

Layout
------
:mod:`repro.serve.pool`
    :class:`ShardedMonitorPool` — customers partitioned
    ``customer_id % n_shards`` across monitors; serial or
    :func:`~repro.runtime.executor.run_sharded` parallel batch
    processing, bit-identical either way.
:mod:`repro.serve.checkpoint`
    :class:`ServeCheckpoint` — state generations (a full base at each
    window close, a per-batch journal in between) sealed by an atomic
    ``cursor-<commit>.json`` under a fresh name per commit (the single
    commit point; the newest cursor wins);
    :class:`CursorInvalid` signals an unusable cursor and triggers the
    restart-from-head fallback.
:mod:`repro.serve.loop`
    :func:`serve_stream` — the ingest/score/checkpoint loop, plus the
    :func:`offline_sweep` batch reference it must match bit-for-bit.
:mod:`repro.serve.api`
    :class:`StatusBoard` (socket-free status/score handle) and
    :class:`StatusServer` (the same routes over stdlib HTTP).

The headline invariant: serving a recorded stream to completion is
bit-identical to the offline batch sweep over the same log — regardless
of shard count, parallelism, or how many times the run was killed and
resumed (compare :meth:`ServeResult.fingerprint` with
:meth:`OfflineSweep.fingerprint`).
"""

from repro.serve.api import StatusBoard, StatusServer
from repro.serve.checkpoint import (
    CheckpointIOExhausted,
    CursorInvalid,
    LoadedCheckpoint,
    ServeCheckpoint,
    ServeCursor,
)
from repro.serve.loop import (
    OfflineSweep,
    ServeCounters,
    ServeResult,
    offline_sweep,
    offline_sweep_stream,
    score_fingerprint,
    serve_stream,
)
from repro.serve.pool import ShardedMonitorPool, merge_reports, shard_of

__all__ = [
    "StatusBoard",
    "StatusServer",
    "CheckpointIOExhausted",
    "CursorInvalid",
    "LoadedCheckpoint",
    "ServeCheckpoint",
    "ServeCursor",
    "OfflineSweep",
    "ServeCounters",
    "ServeResult",
    "offline_sweep",
    "offline_sweep_stream",
    "score_fingerprint",
    "serve_stream",
    "ShardedMonitorPool",
    "merge_reports",
    "shard_of",
]
