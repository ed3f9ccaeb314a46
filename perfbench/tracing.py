"""Layer spans recorded from the benchmark's own files.

A traced run wraps the names callers bind, for example
``repro.serve.loop.replay_stream`` or ``ServeCheckpoint.write_state``, so
every call into a layer opens a span (name, start, end, parent, interval).
Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover;
whatever no layer span covers inside an op is reported as unattributed.

Untraced runs install nothing.  In a traced run the recorder is switched
off for every other op, so the same run also measures what the wrappers
cost (``bench.trace_overhead_pct``).
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from perfbench.probe import io_bytes

__all__ = ["Recorder", "install_layer_wrappers", "LAYER_OF_SPAN"]

#: Spans reported under another span's layer (the rest: their own name).
LAYER_OF_SPAN = {"atomicio.fsync": "atomicio.write"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "interval", "attrs")

    def __init__(
        self, name: str, start: float, parent: int, interval: tuple[str, int]
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.interval = interval
        self.attrs: dict[str, float] = {}


class Recorder:
    """In-memory span store plus the switch that turns recording on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: The timed interval spans belong to, e.g. ``("op", 3)``.
        self.interval: tuple[str, int] = ("idle", 0)
        self.active = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.interval))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around a block (nothing when switched off)."""
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Callable[..., dict[str, float]] | None = None,
    ) -> Callable:
        """``fn`` recorded as ``name``; ``count(result, *args, **kwargs)``
        adds counts to the span after it closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if count is not None:
                span.attrs.update(count(result, *args, **kwargs))
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Self time (s) of every span, index-aligned with :attr:`spans`."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own


class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install_layer_wrappers(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point the workloads reach; returns undo."""
    import repro.atomicio as atomicio
    import repro.core.engines as engines
    import repro.serve.loop as loop
    import repro.serve.pool as pool
    from repro.serve.checkpoint import ServeCheckpoint
    from repro.serve.pool import ShardedMonitorPool

    patches = _Patches()
    wrap = recorder.wrap

    def replay_stream(*args, **kwargs):
        batches = original_replay(*args, **kwargs)

        def decoded():
            while True:
                if not recorder.active:
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                    yield batch
                    continue
                index = recorder.open("synth.stream.decode")
                try:
                    batch = next(batches)
                except StopIteration:
                    recorder.close(index)
                    return
                recorder.close(index).attrs["day_batches"] = 1
                yield batch

        return decoded()

    original_replay = loop.replay_stream
    patches.set(loop, "replay_stream", replay_stream)
    patches.set(
        loop,
        "stream_fingerprint",
        wrap(loop.stream_fingerprint, "synth.stream.fingerprint"),
    )
    for name in (
        "_apply_reports",
        "_table_to_payload",
        "_table_from_payload",
        "_freeze_table",
        "build_manifest",
        "write_manifest",
        "read_stream_header",
        "stream_calendar",
        "config_fingerprint",
    ):
        if name in loop.__dict__:
            patches.set(loop, name, wrap(loop.__dict__[name], "serve.loop"))

    def advance_counts(reports, _pool, batches, *rest, **kwargs):
        touched = {b.customer_id for batch in batches for b in batch.baskets}
        return {
            "baskets": sum(batch.n_baskets for batch in batches),
            "windows_closed": len(reports),
            "touched": len(touched),
        }

    def snapshot_counts(payloads, *args, **kwargs):
        return {"customers": sum(len(p.get("customers", ())) for p in payloads)}

    def encode_counts(payload, *args, **kwargs):
        return {"customers": len(payload.get("customers", ()))}

    def decode_counts(_monitor, payload, *args, **kwargs):
        return {"customers": len(payload.get("customers", ()))}

    patches.set(
        ShardedMonitorPool,
        "process_batch",
        wrap(ShardedMonitorPool.process_batch, "serve.pool.advance", advance_counts),
    )
    patches.set(
        ShardedMonitorPool,
        "snapshot_shards",
        wrap(ShardedMonitorPool.snapshot_shards, "serve.pool.snapshot", snapshot_counts),
    )
    patches.set(
        ShardedMonitorPool,
        "finish",
        wrap(ShardedMonitorPool.finish, "serve.pool.advance"),
    )
    from_snapshots = ShardedMonitorPool.__dict__["from_snapshots"].__func__
    patches.set(
        ShardedMonitorPool,
        "from_snapshots",
        classmethod(wrap(from_snapshots, "serve.pool.restore")),
    )
    patches.set(
        pool,
        "snapshot_monitor",
        wrap(pool.snapshot_monitor, "runtime.snapshot.encode", encode_counts),
    )
    patches.set(
        pool,
        "restore_monitor",
        wrap(pool.restore_monitor, "runtime.snapshot.decode", decode_counts),
    )

    original_run_sharded = pool.run_sharded

    def run_sharded(*args, **kwargs):
        if not recorder.active:
            return original_run_sharded(*args, **kwargs)
        cpu = time.thread_time()
        index = recorder.open("runtime.executor")
        try:
            results, report = original_run_sharded(*args, **kwargs)
        finally:
            span = recorder.close(index)
        span.attrs.update(
            {
                "wait_s": (span.end - span.start) - (time.thread_time() - cpu),
                "pools": max((o.pool_attempts for o in report.outcomes), default=0),
                "retries": report.n_retried,
                "degraded": report.n_degraded,
            }
        )
        return results, report

    patches.set(pool, "run_sharded", run_sharded)

    original_load = ServeCheckpoint.load

    def load(*args, **kwargs):
        if not recorder.active:
            return original_load(*args, **kwargs)
        read = io_bytes("rchar")
        index = recorder.open("serve.checkpoint.load")
        try:
            return original_load(*args, **kwargs)
        finally:
            recorder.close(index).attrs["bytes"] = io_bytes("rchar") - read

    patches.set(
        ServeCheckpoint,
        "write_state",
        wrap(ServeCheckpoint.write_state, "serve.checkpoint.write"),
    )
    patches.set(
        ServeCheckpoint,
        "commit",
        wrap(ServeCheckpoint.commit, "serve.checkpoint.commit"),
    )
    patches.set(ServeCheckpoint, "load", functools.wraps(original_load)(load))
    patches.set(
        atomicio,
        "atomic_write_text",
        wrap(
            atomicio.atomic_write_text,
            "atomicio.write",
            lambda _result, _path, text, *a, **k: {
                "files": 1,
                "bytes": len(text.encode("utf-8")),
            },
        ),
    )
    patches.set(os, "fsync", wrap(os.fsync, "atomicio.fsync"))

    def fit_counts(_result, frame, *args, **kwargs):
        return {
            "receipts": len(frame.basket_days),
            "customers": frame.n_customers,
        }

    patches.set(
        engines,
        "stability_matrix",
        wrap(engines.stability_matrix, "core.batch.fit", fit_counts),
    )
    return patches.restore


def worker_peak_rss_mb() -> float:
    """Peak RSS of the largest child process this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
