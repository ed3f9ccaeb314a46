"""Mid-window resume tests: kill, resume, prove the ≤1-batch rework bound.

The worst crash point is *between* a batch's state write and its cursor
commit (the ``on_state_written`` hook).  After such a crash the resumed
run must (a) produce a final score table bit-identical to an unkilled
run, (b) rework exactly one batch — provable from the processed-batch
journal: ``run1 + run2 == n_batches + 1`` — and (c) restore counters
without double-counting.
"""

from __future__ import annotations

import functools
import json
import logging
import shutil
import struct
import threading
from pathlib import Path

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, metrics as obs_metrics, use_metrics
from repro.runtime.faults import FaultPlan, tear_file
from repro.runtime.snapshot import encode_snapshot
from repro.serve import (
    ServeCheckpoint,
    ShardedMonitorPool,
    offline_sweep_stream,
    serve_stream,
)
from repro.synth import stream as synth_stream
from repro.synth.scenarios import paper_scenario
from repro.synth.stream import (
    read_stream_header,
    record_stream,
    replay_stream,
    stream_calendar,
)

BATCH = 200


class _Boom(RuntimeError):
    """Simulated crash injected from the on_state_written hook."""


def _crash_on(call: int):
    """A hook raising on the ``call``-th state write (1-based)."""
    seen = {"n": 0}

    def hook(commit_index: int) -> None:
        seen["n"] += 1
        if seen["n"] == call:
            raise _Boom(f"crash at state write #{call}")

    return hook, seen


@pytest.fixture()
def full_run(stream_path, serve_config, tmp_path):
    """An unkilled reference run (fresh checkpoint dir per test)."""
    return serve_stream(
        stream_path, tmp_path / "ref", config=serve_config, batch_size=BATCH
    )


class TestCrashResume:
    def test_crash_between_state_and_cursor(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        n_batches = full_run.batches_this_run
        assert n_batches >= 4, "fixture too small to crash mid-stream"
        ckpt = tmp_path / "crash"
        hook, seen = _crash_on(4)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        run1_processed = seen["n"]

        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert resumed.resumed
        assert resumed.finished
        # Rework bound, provable from the processed-batch counts.
        assert resumed.batches_reworked == 1
        assert run1_processed + resumed.batches_this_run == n_batches + 1
        # Bit-identical to the offline sweep and the unkilled run.
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.fingerprint() == full_run.fingerprint()
        # Counters restored from the cursor: no double counting.
        assert resumed.counters == full_run.counters

    def test_crash_at_first_batch(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "crash-first"
        hook, seen = _crash_on(1)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        # Nothing was ever committed: a fresh start, not a resume, and
        # the batch in flight is the only one processed twice.
        assert not resumed.resumed
        assert resumed.batches_reworked == 0
        assert (
            seen["n"] + resumed.batches_this_run
            == full_run.batches_this_run + 1
        )
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.counters == full_run.counters

    def test_crash_during_finish_commit(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        n_batches = full_run.batches_this_run
        ckpt = tmp_path / "crash-finish"
        # The finish seal is state write n_batches + 1.
        hook, seen = _crash_on(n_batches + 1)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert resumed.resumed
        assert resumed.finished
        assert resumed.batches_this_run == 0
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.counters == full_run.counters

    def test_clean_interrupt_resumes_without_rework(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "partial"
        first = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        assert not first.finished
        assert first.batches_this_run == 3
        second = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert second.resumed
        assert second.batches_reworked == 0
        assert (
            first.batches_this_run + second.batches_this_run
            == full_run.batches_this_run
        )
        assert second.fingerprint() == offline_reference.fingerprint()

    def test_finished_checkpoint_is_idempotent(
        self, stream_path, serve_config, full_run
    ):
        again = serve_stream(
            stream_path,
            full_run.checkpoint_dir,
            config=serve_config,
            batch_size=BATCH,
        )
        assert again.finished
        assert again.batches_this_run == 0
        assert again.fingerprint() == full_run.fingerprint()
        assert again.counters == full_run.counters


class TestCursorFallback:
    def test_torn_cursor_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        ckpt = tmp_path / "torn"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        tear_file(ServeCheckpoint(ckpt).cursor_path, keep_fraction=0.4)
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any(
            "restarting from stream head" in r.message for r in caplog.records
        )
        assert (
            registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        )

    def test_torn_shard_state_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        ckpt = tmp_path / "torn-state"
        partial = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        base = ServeCheckpoint(ckpt).read_cursor().base_index
        state_dir = ckpt / f"state-{base:06d}"
        assert state_dir.exists(), partial
        tear_file(ServeCheckpoint(ckpt).shard_path(base, 0), keep_fraction=0.3)
        with caplog.at_level(logging.WARNING, logger="repro.serve.loop"):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_torn_journal_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        ckpt = tmp_path / "torn-journal"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        cursor = ServeCheckpoint(ckpt).read_cursor()
        assert cursor.base_index < cursor.commit_index == 3
        journal = ServeCheckpoint(ckpt).journal_path(cursor.base_index, 3)
        tear_file(journal, keep_fraction=0.3)
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any(journal.name in r.message for r in caplog.records)
        assert (
            registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        )

    @pytest.mark.parametrize("kind", ["shard", "journal"])
    def test_altered_state_file_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, kind
    ):
        ckpt = tmp_path / "altered"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        checkpoint = ServeCheckpoint(ckpt)
        cursor = checkpoint.read_cursor()
        assert cursor.base_index < cursor.commit_index
        target = {
            "shard": checkpoint.shard_path(cursor.base_index, 0),
            "journal": checkpoint.journal_path(
                cursor.base_index, cursor.commit_index
            ),
        }[kind]
        # Change one byte inside the arrays, the file still complete:
        # past the magic, the header length, the header and its CRC32.
        data = bytearray(target.read_bytes())
        (header_length,) = struct.unpack_from("<I", data, 8)
        arrays_start = 12 + header_length + 4
        assert arrays_start < len(data), kind
        data[(arrays_start + len(data)) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert (
            registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        )

    def test_resume_replays_from_the_cursor_offset(
        self, stream_path, serve_config, offline_reference, tmp_path, monkeypatch
    ):
        import repro.serve.loop as loop

        ckpt = tmp_path / "offset"
        partial = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH, max_batches=3
        )
        cursor = ServeCheckpoint(ckpt).read_cursor()
        days = list(replay_stream(stream_path))
        # The offset is the end of the last consumed day's line.
        assert cursor.stream_offset == days[partial.day_batches_consumed - 1].end
        starts = []

        def recording_replay(path, **kwargs):
            starts.append(kwargs.get("start", 0))
            return replay_stream(path, **kwargs)

        monkeypatch.setattr(loop, "replay_stream", recording_replay)
        result = serve_stream(stream_path, ckpt, config=serve_config, batch_size=BATCH)
        assert starts == [cursor.stream_offset]
        assert result.resumed and not result.batches_reworked
        assert result.fingerprint() == offline_reference.fingerprint()

    @pytest.mark.parametrize("shift", [3, -1], ids=["skips-days", "repeats-a-day"])
    def test_offset_on_another_day_line_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog, shift
    ):
        # The offset still begins a day line, but not the one after the
        # day the committed state last saw: resuming there would skip
        # (or re-ingest) whole days.
        ckpt = tmp_path / "moved-offset"
        serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH, max_batches=3
        )
        path = ServeCheckpoint(ckpt).cursor_path
        cursor = json.loads(path.read_text())
        ends = [batch.end for batch in replay_stream(stream_path)]
        cursor["stream_offset"] = ends[ends.index(cursor["stream_offset"]) + shift]
        path.write_text(json.dumps(cursor))
        with caplog.at_level(logging.WARNING, logger="repro.serve.loop"):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.counters.ingested == sum(
            batch.n_baskets for batch in replay_stream(stream_path)
        )
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any("not the resumed state's day" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "mangle",
        [lambda offset, size: offset + 1, lambda offset, size: 5,
         lambda offset, size: size + 10, lambda offset, size: -1],
        ids=["mid-line", "in-header", "past-end", "negative"],
    )
    def test_mangled_stream_offset_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog, mangle
    ):
        ckpt = tmp_path / "mangled-offset"
        serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH, max_batches=3
        )
        path = ServeCheckpoint(ckpt).cursor_path
        cursor = json.loads(path.read_text())
        cursor["stream_offset"] = mangle(
            cursor["stream_offset"], stream_path.stat().st_size
        )
        path.write_text(json.dumps(cursor))
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any("stream_offset" in r.message for r in caplog.records)
        assert (
            registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        )

    def test_version_1_cursor_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        # Version 1 had no base; version 5 kept the score table
        # scores.snap beside shard snapshots without an alarm log.
        for version in (1, 5):
            ckpt = tmp_path / f"v{version}"
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                max_batches=3,
            )
            path = ServeCheckpoint(ckpt).cursor_path
            cursor = json.loads(path.read_text())
            cursor["version"] = version
            if version == 1:
                del cursor["base_index"]
            path.write_text(json.dumps(cursor))
            caplog.clear()
            registry = MetricsRegistry()
            with use_metrics(registry), caplog.at_level(
                logging.WARNING, logger="repro.serve.loop"
            ):
                result = serve_stream(
                    stream_path, ckpt, config=serve_config, batch_size=BATCH
                )
            assert not result.resumed
            assert result.finished
            assert result.fingerprint() == offline_reference.fingerprint()
            assert any(
                f"version drift: found version {version}" in r.message
                for r in caplog.records
            )
            assert (
                registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
            )

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("where", ["consumed", "unconsumed"])
    def test_changed_stream_restarts_from_head(
        self,
        stream_path,
        serve_config,
        offline_reference,
        tmp_path,
        caplog,
        where,
        n_shards,
    ):
        # One byte of one day line changes after a commit and the line
        # stays valid, so only the stream digest can tell: inside the
        # prefix the cursor consumed, which falls back, or past its
        # offset, which the cursor's prefix digest does not cover, so
        # the run resumes and serves the changed day.
        stream = tmp_path / "stream.jsonl"
        shutil.copyfile(stream_path, stream)
        ckpt = tmp_path / "ckpt"
        run = functools.partial(
            serve_stream,
            stream,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            n_shards=n_shards,
        )
        run(max_batches=3)
        days = list(replay_stream(stream))
        consumed = [day.end for day in days].index(
            ServeCheckpoint(ckpt).read_cursor().stream_offset
        ) + 1
        changed_day = consumed // 2 if where == "consumed" else consumed + 1
        _move_first_basket(stream, days, changed_day)
        changed = offline_sweep_stream(stream, config=serve_config)
        if where == "consumed":
            assert changed.fingerprint() != offline_reference.fingerprint()
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = run()
        fell_back = where == "consumed"
        assert result.resumed != fell_back
        assert result.finished
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == fell_back
        assert fell_back == any(
            "recorded over stream" in r.message for r in caplog.records
        )
        assert result.fingerprint() == changed.fingerprint()

    def test_changed_config_restarts_from_head(
        self, stream_path, serve_config, tmp_path, caplog
    ):
        ckpt = tmp_path / "reconfig"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        with caplog.at_level(logging.WARNING, logger="repro.serve.loop"):
            result = serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                beta=0.7,
            )
        assert not result.resumed
        assert result.finished


def _move_first_basket(stream: Path, days: list, index: int) -> None:
    """Give day line ``index``'s first basket to another customer, in
    place: the customer id's last digit changes, one byte, and the line
    stays valid."""
    data = bytearray(stream.read_bytes())
    start = days[index - 1].end if index else data.index(b"\n") + 1
    # A day line reads {"baskets": [[customer, [item, ...], amount], ...
    position = data.index(b"[[", start) + 2
    while chr(data[position + 1]).isdigit():
        position += 1
    assert position < days[index].end
    data[position] = ord("0") + (data[position] - ord("0") + 1) % 10
    stream.write_bytes(bytes(data))


def _cursor_files(ckpt: Path) -> list[str]:
    return sorted(p.name for p in ckpt.glob("cursor*.json"))


def _generations(ckpt: Path) -> list[str]:
    return sorted(p.name for p in ckpt.glob("state-*"))


class TestCursorFiles:
    """Each commit writes ``cursor-<commit>.json`` and removes its
    predecessor; a run's first commit sweeps every other cursor."""

    @pytest.fixture()
    def serve(self, stream_path, serve_config, tmp_path):
        ckpt = tmp_path / "ckpt"
        return ckpt, functools.partial(
            serve_stream, stream_path, ckpt, config=serve_config, batch_size=BATCH
        )

    def test_torn_newest_cursor_falls_back_then_the_next_leg_resumes(
        self, serve, offline_reference
    ):
        ckpt, run = serve
        run(max_batches=6)
        newest = ServeCheckpoint(ckpt).cursor_path
        assert newest.name == "cursor-000006.json"
        tear_file(newest, keep_fraction=0.4)
        registry = MetricsRegistry()
        with use_metrics(registry):
            fallback = run(max_batches=2)
            assert not fallback.resumed
            assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
            # The fallback's first commit removed the torn cursor.
            assert _cursor_files(ckpt) == ["cursor-000002.json"]
            assert len(_generations(ckpt)) == 1
            resumed = run(max_batches=1)
        assert resumed.resumed and not resumed.batches_reworked
        assert resumed.counters.checkpointed == 3
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert _cursor_files(ckpt) == ["cursor-000003.json"]
        assert len(_generations(ckpt)) == 1
        finished = run()
        assert finished.resumed and finished.finished
        assert finished.fingerprint() == offline_reference.fingerprint()

    def test_cursor_named_for_another_commit_restarts_from_head(
        self, serve, offline_reference, caplog
    ):
        ckpt, run = serve
        run(max_batches=3)
        checkpoint = ServeCheckpoint(ckpt)
        checkpoint.cursor_file(3).rename(checkpoint.cursor_file(4))
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = run()
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any("cursor names commit 3" in r.message for r in caplog.records)
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert _cursor_files(ckpt) == [checkpoint.cursor_path.name]
        assert checkpoint.read_cursor().finished

    def test_leftover_version_6_cursor_restarts_from_head_and_is_removed(
        self, serve, caplog
    ):
        # Version 6 replaced one cursor.json in place.
        ckpt, run = serve
        run(max_batches=3)
        newest = ServeCheckpoint(ckpt).cursor_path
        cursor = json.loads(newest.read_text())
        newest.unlink()
        (ckpt / "cursor.json").write_text(json.dumps(dict(cursor, version=6)))
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = run(max_batches=1)
        assert not result.resumed
        assert any(
            "version drift: found version 6" in r.message for r in caplog.records
        )
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert _cursor_files(ckpt) == ["cursor-000001.json"]

    def test_one_cursor_and_one_generation_after_every_commit(
        self, serve, offline_reference, monkeypatch
    ):
        ckpt, run = serve
        seen = []
        commit = ServeCheckpoint.commit

        def checked_commit(self, cursor):
            path = commit(self, cursor)
            seen.append(
                (
                    cursor.commit_index,
                    _cursor_files(ckpt),
                    _generations(ckpt),
                )
            )
            return path

        monkeypatch.setattr(ServeCheckpoint, "commit", checked_commit)
        run(max_batches=3)
        # Killed between commit 5's state write and its cursor.
        hook, _ = _crash_on(2)
        with pytest.raises(_Boom):
            run(on_state_written=hook)
        result = run()
        assert result.batches_reworked == 1
        assert result.fingerprint() == offline_reference.fingerprint()
        assert [commit for commit, _, _ in seen] == list(
            range(1, result.counters.checkpointed + 2)
        )
        for commit_index, cursors, generations in seen:
            assert cursors == [f"cursor-{commit_index:06d}.json"], commit_index
            assert len(generations) == 1, (commit_index, generations)

    def test_fresh_run_replaces_no_existing_file(
        self, serve, stream_path, serve_config, offline_reference, monkeypatch
    ):
        import os

        ckpt, run = serve
        renames = []
        replace = os.replace

        def recording_replace(src, dst, *args, **kwargs):
            renames.append((Path(dst), Path(dst).exists()))
            return replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", recording_replace)
        result = run()
        assert result.fingerprint() == offline_reference.fingerprint()
        under = [(dst, existed) for dst, existed in renames if ckpt in dst.parents]
        # Each commit renames its state and its cursor into place.
        assert len(under) >= 2 * (result.counters.checkpointed + 1)
        assert [dst for dst, existed in under if existed] == []

        # A resumed leg lands on free names too, its manifest included,
        # though the leg before it left one.
        resumed_ckpt = ckpt.parent / "resumed"
        resume = functools.partial(
            serve_stream,
            stream_path,
            resumed_ckpt,
            config=serve_config,
            batch_size=BATCH,
        )
        resume(max_batches=3)
        assert (resumed_ckpt / "manifest.json").exists()
        renames.clear()
        resumed = resume()
        assert resumed.resumed and resumed.finished
        assert resumed.fingerprint() == offline_reference.fingerprint()
        under = [dst for dst, _ in renames if resumed_ckpt in dst.parents]
        assert resumed_ckpt / "manifest.json" in under
        assert [dst for dst, existed in renames if existed] == []


class TestStreamDigest:
    """A resume hashes the stream prefix its cursor consumed, once, on
    the calling thread, before it replays anything; the replay carries
    that digest forward, so every cursor pins the prefix it consumed."""

    @pytest.fixture()
    def partial(self, stream_path, serve_config, tmp_path):
        """A two-shard checkpoint three batches in, and its next leg."""
        ckpt = tmp_path / "ckpt"
        run = functools.partial(
            serve_stream,
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            n_shards=2,
        )
        run(max_batches=3)
        return ckpt, run

    @staticmethod
    def _tear_base(ckpt: Path) -> None:
        checkpoint = ServeCheckpoint(ckpt)
        base = checkpoint.read_cursor().base_index
        tear_file(checkpoint.shard_path(base, 0), keep_fraction=0.3)

    @staticmethod
    def _record_binding(monkeypatch, calls: list, fail: bool = False) -> None:
        """Record ``(thread, end)`` of every call of the loop's
        ``stream_fingerprint`` binding; raise ``OSError`` if ``fail``."""
        import repro.serve.loop as loop

        fingerprint = loop.stream_fingerprint

        def recording(path, end=None, **kwargs):
            calls.append((threading.get_ident(), end))
            if fail:
                raise OSError(5, "Input/output error", str(path))
            return fingerprint(path, end, **kwargs)

        monkeypatch.setattr(loop, "stream_fingerprint", recording)

    @pytest.mark.parametrize("leg", ["resume", "fallback", "finished", "crash"])
    def test_no_thread_outlives_the_call(self, partial, leg):
        ckpt, run = partial
        if leg == "fallback":
            self._tear_base(ckpt)
        elif leg == "finished":
            run()
        before = threading.active_count()
        if leg == "crash":
            hook, seen = _crash_on(1)
            with pytest.raises(_Boom):
                run(on_state_written=hook)
            assert seen["n"] == 1
        else:
            result = run(max_batches=2)
            assert result.resumed == (leg != "fallback")
        assert threading.active_count() == before

    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
    def test_digest_finishes_before_the_first_batch(
        self, partial, offline_reference, monkeypatch, parallel
    ):
        ckpt, run = partial
        offset = ServeCheckpoint(ckpt).read_cursor().stream_offset
        events = []
        self._record_binding(monkeypatch, events)
        process_batch = ShardedMonitorPool.process_batch

        def recording_process_batch(self, batches):
            events.append("batch")
            return process_batch(self, batches)

        monkeypatch.setattr(
            ShardedMonitorPool, "process_batch", recording_process_batch
        )
        result = run(parallel=parallel)
        assert result.resumed and result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        first, *batches = events
        assert first == (threading.get_ident(), offset)
        assert batches and batches == ["batch"] * len(batches)

    @pytest.mark.parametrize("leg", ["resume", "finished"])
    def test_a_hashing_error_propagates(self, partial, monkeypatch, leg):
        ckpt, run = partial
        if leg == "finished":
            run()
        calls = []
        self._record_binding(monkeypatch, calls, fail=True)
        registry = MetricsRegistry()
        with use_metrics(registry), pytest.raises(OSError, match="Input/output"):
            run()
        assert len(calls) == 1
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 0

    def test_fresh_start_hashes_nothing_before_its_first_batch(
        self, stream_path, partial, monkeypatch
    ):
        ckpt, run = partial
        shutil.rmtree(ckpt)
        calls = []
        self._record_binding(monkeypatch, calls, fail=True)
        result = run(max_batches=1)
        assert not result.resumed and calls == []
        # The replay hashed the header and the batch's day lines.
        cursor = ServeCheckpoint(ckpt).read_cursor()
        assert cursor.stream_fingerprint == synth_stream.stream_fingerprint(
            stream_path, cursor.stream_offset
        )

    def test_torn_state_falls_back_before_hashing(
        self, partial, offline_reference, monkeypatch
    ):
        # The state fails first, so the stream is never hashed: the
        # fallback run hashes from the head as it replays.
        ckpt, run = partial
        self._tear_base(ckpt)
        calls = []
        self._record_binding(monkeypatch, calls, fail=True)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = run()
        assert not result.resumed and result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert calls == []
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1

    def test_the_loop_binding_runs_on_the_calling_thread_only(
        self, partial, offline_reference, monkeypatch
    ):
        # A layer tracer wraps repro.serve.loop.stream_fingerprint with
        # spans on one stack: a resume hashes its prefix through that
        # binding, on the calling thread; a resume whose state or cursor
        # fails falls back before hashing, and a fresh start hashes as
        # it replays.
        ckpt, run = partial
        offset = ServeCheckpoint(ckpt).read_cursor().stream_offset
        calls = []
        self._record_binding(monkeypatch, calls)
        assert run(max_batches=1).resumed
        assert calls == [(threading.get_ident(), offset)]
        self._tear_base(ckpt)
        assert not run(max_batches=1).resumed
        tear_file(ServeCheckpoint(ckpt).cursor_path, keep_fraction=0.4)
        assert not run(max_batches=1).resumed
        shutil.rmtree(ckpt)
        result = run()
        assert not result.resumed
        assert result.fingerprint() == offline_reference.fingerprint()
        assert len(calls) == 1

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_cursor_pins_the_prefix_it_consumed(
        self, stream_path, serve_config, offline_reference, tmp_path, monkeypatch, n_shards
    ):
        cursors = []
        commit = ServeCheckpoint.commit

        def recording_commit(self, cursor):
            cursors.append(cursor)
            return commit(self, cursor)

        monkeypatch.setattr(ServeCheckpoint, "commit", recording_commit)
        ckpt = tmp_path / "ckpt"
        result = None
        # Two batches a leg: every other cursor carries a resumed digest.
        while result is None or not result.finished:
            result = serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                n_shards=n_shards,
                max_batches=2,
            )
            assert result.resumed == (len(cursors) > 2)
        assert result.fingerprint() == offline_reference.fingerprint()
        assert len(cursors) > 4 and cursors[-1].finished
        for cursor in cursors:
            assert cursor.stream_fingerprint == synth_stream.stream_fingerprint(
                stream_path, end=cursor.stream_offset
            ), cursor.commit_index
        whole = synth_stream.stream_fingerprint(stream_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert cursors[-1].stream_fingerprint == whole
        assert manifest["dataset_fingerprint"] == whole


class TestStreamPrefix:
    """The cursor pins only the prefix its state consumed: days appended
    past it are served on, a prefix cut short falls back."""

    @staticmethod
    def _cut(stream_path: Path, stream: Path, drop: int) -> bytes:
        """Write ``stream_path`` without its last ``drop`` day lines to
        ``stream``; return the dropped bytes."""
        data = stream_path.read_bytes()
        cut = list(replay_stream(stream_path))[-drop - 1].end
        stream.write_bytes(data[:cut])
        return data[cut:]

    @pytest.mark.parametrize("served", ["partly", "finished"])
    def test_appended_days_are_served(
        self, stream_path, serve_config, offline_reference, tmp_path, served
    ):
        stream = tmp_path / "stream.jsonl"
        appended = self._cut(stream_path, stream, drop=1)
        run = functools.partial(
            serve_stream, stream, tmp_path / "ckpt", config=serve_config, batch_size=BATCH
        )
        first = run(max_batches=3 if served == "partly" else None)
        assert first.finished == (served == "finished")
        with stream.open("ab") as handle:
            handle.write(appended)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = run()
        assert result.finished and result.batches_reworked == 0
        assert result.fingerprint() == offline_reference.fingerprint()
        # A finished run sealed its windows: it cannot take more days, so
        # it re-serves the longer stream from the head.
        fell_back = served == "finished"
        assert result.resumed != fell_back
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == fell_back

    def test_stream_truncated_before_the_offset_falls_back(
        self, stream_path, serve_config, tmp_path, caplog
    ):
        stream = tmp_path / "stream.jsonl"
        shutil.copyfile(stream_path, stream)
        run = functools.partial(
            serve_stream, stream, tmp_path / "ckpt", config=serve_config, batch_size=BATCH
        )
        run(max_batches=3)
        days = list(replay_stream(stream))
        offset = ServeCheckpoint(tmp_path / "ckpt").read_cursor().stream_offset
        consumed = [day.end for day in days].index(offset) + 1
        stream.write_bytes(stream.read_bytes()[: days[consumed // 2].end])
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = run()
        assert not result.resumed and result.finished
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert any("stream_offset" in r.message for r in caplog.records)
        assert result.fingerprint() == (
            offline_sweep_stream(stream, config=serve_config).fingerprint()
        )

    def test_header_only_stream_seals_and_resumes_as_a_no_op(
        self, stream_path, serve_config, tmp_path
    ):
        stream = record_stream(
            [],
            tmp_path / "empty.jsonl",
            calendar=stream_calendar(read_stream_header(stream_path)),
        )
        run = functools.partial(
            serve_stream, stream, tmp_path / "ckpt", config=serve_config
        )
        first = run()
        assert first.finished and first.batches_this_run == 0
        cursor = ServeCheckpoint(tmp_path / "ckpt").read_cursor()
        assert cursor.finished and cursor.stream_offset == 0
        assert cursor.stream_fingerprint == synth_stream.stream_fingerprint(stream)
        registry = MetricsRegistry()
        with use_metrics(registry):
            again = run()
        assert again.resumed and again.finished and again.batches_this_run == 0
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 0
        assert again.fingerprint() == first.fingerprint()


class TestFaultyWorkers:
    def test_crashed_shard_worker_is_retried(
        self, stream_path, serve_config, offline_reference, tmp_path
    ):
        result = serve_stream(
            stream_path,
            tmp_path / "faulty",
            config=serve_config,
            batch_size=BATCH,
            n_shards=2,
            parallel=True,
            fault_plan=FaultPlan(crashes=((0, 0),)),
        )
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_erroring_worker_then_crash_then_resume(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "faulty-crash"
        hook, seen = _crash_on(3)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                n_shards=2,
                parallel=True,
                fault_plan=FaultPlan(errors=((1, 0),)),
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            n_shards=2,
            parallel=True,
        )
        assert resumed.resumed
        assert resumed.batches_reworked == 1
        assert (
            seen["n"] + resumed.batches_this_run
            == full_run.batches_this_run + 1
        )
        assert resumed.fingerprint() == offline_reference.fingerprint()


class TestValidation:
    def test_bad_batch_size(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="batch_size"):
            serve_stream(
                stream_path, tmp_path / "x", config=serve_config, batch_size=0
            )

    def test_bad_n_shards(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="n_shards"):
            serve_stream(
                stream_path, tmp_path / "x", config=serve_config, n_shards=0
            )

    def test_bad_max_batches(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="max_batches"):
            serve_stream(
                stream_path,
                tmp_path / "x",
                config=serve_config,
                max_batches=0,
            )

    def test_config_retries_reach_the_pool(self, stream_path, tmp_path, monkeypatch):
        # ExperimentConfig.retries is the pool's one retry count, on a
        # fresh start and on a resume alike.
        seen = []
        process_batch = ShardedMonitorPool.process_batch

        def recording(self, batches):
            seen.append(self.retries)
            return process_batch(self, batches)

        monkeypatch.setattr(ShardedMonitorPool, "process_batch", recording)
        config = ExperimentConfig(retries=0)
        for _ in range(2):
            result = serve_stream(
                stream_path, tmp_path / "ckpt", config=config, max_batches=1
            )
        assert result.resumed
        assert seen == [0, 0]


@pytest.fixture(scope="module")
def paper_stream(tmp_path_factory):
    """A seeded paper-scenario stream: 80 customers over 4 months, so
    256-basket batches fall several to a 2-month window."""
    dataset = paper_scenario(40, 40, seed=7, n_months=4, onset_month=3)
    baskets = sorted(dataset.log, key=lambda b: (b.day, b.customer_id))
    path = tmp_path_factory.mktemp("paper") / "stream.jsonl"
    return record_stream(baskets, path, calendar=dataset.calendar)


class TestResumeAtEveryCommit:
    """A resume from any commit — base or journal — restores exactly the
    state the uninterrupted run had there."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("batch_size", [256, 1], ids=["256", "one-day"])
    def test_resumed_state_matches_uninterrupted_run(
        self, paper_stream, tmp_path, batch_size, n_shards
    ):
        config = ExperimentConfig()
        ckpt = ServeCheckpoint(tmp_path / "ckpt")
        # commit -> (cursor, resumed pool's shard snapshots)
        resumed: dict[int, tuple] = {}

        def observe() -> None:
            cursor = ckpt.read_cursor()
            loaded = ckpt.load(
                cursor, serve_fingerprint=cursor.serve_fingerprint, n_shards=n_shards
            )
            pool = ShardedMonitorPool.from_snapshots(
                loaded.shard_payloads, loaded.shard_journals
            )
            resumed[cursor.commit_index] = (cursor, pool.snapshot_shards())

        # One leg per batch: each stops after its commit and the next
        # resumes from it.  The hook sees the commit before its own, so
        # the one a final leg commits before its finish seal is seen too.
        def hook(commit_index: int) -> None:
            if commit_index > 1:
                observe()

        result = None
        while result is None or not result.finished:
            result = serve_stream(
                paper_stream,
                ckpt.directory,
                config=config,
                batch_size=batch_size,
                n_shards=n_shards,
                max_batches=1,
                on_state_written=hook,
            )
            assert result.batches_reworked == 0
        observe()
        assert result.fingerprint() == (
            offline_sweep_stream(paper_stream, config=config).fingerprint()
        )

        # The uninterrupted run, batch for batch, through one pool.
        calendar = stream_calendar(read_stream_header(paper_stream))
        grid = config.grid(calendar)
        days = list(replay_stream(paper_stream))
        pool = ShardedMonitorPool.create(
            grid,
            n_shards=n_shards,
            significance=config.significance(),
            counting=config.counting,
        )
        assert sorted(resumed) == list(range(1, len(resumed) + 1))
        consumed = 0
        journal_commits = 0
        straddles = False
        seen: set[int] = set()
        first_in_journal = False
        for commit_index, (cursor, state) in sorted(resumed.items()):
            group = days[consumed : cursor.day_batches_consumed]
            consumed = cursor.day_batches_consumed
            if cursor.finished:
                assert not group
                pool.finish()
            else:
                pool.process_batch(group)
            assert [encode_snapshot(shard) for shard in state] == [
                encode_snapshot(shard) for shard in pool.snapshot_shards()
            ], f"commit {commit_index} (base {cursor.base_index})"
            # The shards hold every count the cursor carries: one alarm
            # row per flag, one closed window per score.
            assert cursor.counters["flagged"] == sum(
                len(shard["alarm_customers"]) for shard in state
            ), commit_index
            assert cursor.counters["scored"] == sum(
                int(shard["n_windows_observed"].sum()) for shard in state
            ), commit_index
            if cursor.base_index < commit_index:
                journal_commits += 1
                first_in_journal |= any(
                    basket.customer_id not in seen
                    for day in group
                    for basket in day.baskets
                )
            elif group:
                straddles |= len(
                    {grid.window_of_day(day.day) for day in group}
                ) > 1
            seen.update(b.customer_id for day in group for b in day.baskets)
        assert journal_commits > 0
        if batch_size == 1:
            # A customer whose first basket only a journal records.
            assert first_in_journal
        else:
            assert straddles, "no batch straddles a window boundary"
