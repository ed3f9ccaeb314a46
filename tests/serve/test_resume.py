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
import struct
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
        self, serve, offline_reference, monkeypatch
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
                stream_fingerprint=cursor.stream_fingerprint,
                serve_fingerprint=cursor.serve_fingerprint,
                n_shards=n_shards,
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
