"""Tests for the serve checkpoint protocol (base + journal generations,
sealed by an atomic cursor)."""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket, DayBatch
from repro.runtime.faults import tear_file
from repro.runtime.snapshot import decode_snapshot, encode_snapshot, snapshot_monitor
from repro.serve import CursorInvalid, ServeCheckpoint, ServeCursor, ShardedMonitorPool
from repro.serve.checkpoint import CURSOR_SCHEMA, CURSOR_VERSION


def _cursor(**overrides) -> ServeCursor:
    base = dict(
        commit_index=3,
        stream_offset=4096,
        day_batches_consumed=17,
        counters={"ingested": 100, "scored": 40, "flagged": 2, "checkpointed": 3},
        stream_fingerprint="aaaa",
        serve_fingerprint="bbbb",
        n_shards=2,
        finished=False,
    )
    base.update(overrides)
    base.setdefault("base_index", base["commit_index"])
    return ServeCursor(**base)


def _write_checkpoint(tmp_path, cursor: ServeCursor) -> ServeCheckpoint:
    checkpoint = ServeCheckpoint(tmp_path / "ckpt")
    checkpoint.write_state(
        cursor.commit_index, [{"shard": i} for i in range(cursor.n_shards)]
    )
    checkpoint.commit(cursor)
    return checkpoint


def _entry(day: int, **customers: set[int]) -> dict:
    """One shard's journal entry, as ShardedMonitorPool.journal_shards
    builds it: customers ascending, each one's items ascending and
    sliced by ``item_offsets`` (customer ids spelled ``c<id>`` for
    keyword use)."""
    unions = sorted((int(key[1:]), sorted(items)) for key, items in customers.items())
    return {
        "last_day_seen": day,
        "customers": np.array([customer for customer, _ in unions], np.int64),
        "item_offsets": np.array(
            list(itertools.accumulate((len(items) for _, items in unions), initial=0)),
            np.int64,
        ),
        "items": np.array([item for _, items in unions for item in items], np.int64),
    }


def _rewrite_journal(path, **changes) -> None:
    """Re-encode the journal at ``path`` with some fields replaced."""
    payload = decode_snapshot(path.read_bytes())
    payload.update(changes)
    path.write_bytes(encode_snapshot(payload))


def _shard(day: int, *rows: tuple[int, list[int], int, float]) -> dict:
    """One shard's base payload: a fresh monitor's snapshot with a
    ``(customer, current items, windows observed, last stability)`` row
    per customer, none of them with tracked items."""
    current = [items for _, items, _, _ in rows]
    return {
        **snapshot_monitor(StabilityMonitor(WindowGrid.daily(60, 10))),
        "last_day_seen": day,
        "customers": [row[0] for row in rows],
        "item_offsets": [0] * (len(rows) + 1),
        "n_windows_observed": [row[2] for row in rows],
        "last_stability": [row[3] for row in rows],
        "current_offsets": list(
            itertools.accumulate(map(len, current), initial=0)
        ),
        "current_items": [item for items in current for item in items],
    }


#: A customer first seen mid-generation: registered by the restore.
_FRESH = 0, float("nan")


def _write_generation(tmp_path) -> ServeCheckpoint:
    """A base at commit 3 and journals 4 and 5 on top, all committed."""
    checkpoint = ServeCheckpoint(tmp_path / "ckpt")
    base = [_shard(30, (2, [1], 4, 0.25)), _shard(30)]
    checkpoint.write_state(3, base)
    checkpoint.commit(_cursor())
    journals = {
        4: [_entry(40, c2={5, 1}, c4={7, 3}), _entry(40, c1={9})],
        5: [_entry(50, c4={1}), _entry(50, c6=set())],
    }
    for commit, entries in journals.items():
        checkpoint.write_state(commit, entries, base_index=3)
        checkpoint.commit(_cursor(commit_index=commit, base_index=3))
    return checkpoint


def _load(checkpoint: ServeCheckpoint, **overrides):
    """What a resume reads: the newest cursor (``None``: a fresh
    start), then that cursor's state."""
    cursor = checkpoint.read_cursor()
    if cursor is None:
        return None
    kwargs = dict(serve_fingerprint="bbbb", n_shards=2)
    kwargs.update(overrides)
    return checkpoint.load(cursor, **kwargs)


def _state(pool: ShardedMonitorPool) -> list[bytes]:
    """The pool's shard snapshots as bytes, where a fresh customer's
    ``nan`` equals ``nan`` and an array equals the list it holds."""
    return [encode_snapshot(payload) for payload in pool.snapshot_shards()]


class TestCursorCodec:
    def test_round_trip(self):
        cursor = _cursor()
        assert ServeCursor.from_payload(cursor.to_payload()) == cursor

    def test_version_drift_names_both_versions(self):
        payload = _cursor().to_payload()
        payload["version"] = CURSOR_VERSION + 1
        with pytest.raises(
            CursorInvalid,
            match=(
                f"found version {CURSOR_VERSION + 1}, "
                f"expected version {CURSOR_VERSION}"
            ),
        ):
            ServeCursor.from_payload(payload)

    def test_foreign_schema_rejected(self):
        payload = _cursor().to_payload()
        payload["schema"] = "something-else"
        with pytest.raises(CursorInvalid, match=CURSOR_SCHEMA):
            ServeCursor.from_payload(payload)

    def test_base_after_commit_rejected(self):
        payload = _cursor(commit_index=3, base_index=4).to_payload()
        with pytest.raises(CursorInvalid, match="base 4 is not in"):
            ServeCursor.from_payload(payload)

    def test_missing_field_rejected(self):
        payload = _cursor().to_payload()
        del payload["commit_index"]
        with pytest.raises(CursorInvalid, match="missing or malformed"):
            ServeCursor.from_payload(payload)


class TestCommitProtocol:
    def test_fresh_directory_loads_none(self, tmp_path):
        checkpoint = ServeCheckpoint(tmp_path / "nothing")
        assert checkpoint.cursor_path is None
        assert _load(checkpoint) is None

    def test_commit_then_load_round_trips(self, tmp_path):
        cursor = _cursor()
        checkpoint = _write_checkpoint(tmp_path, cursor)
        loaded = _load(checkpoint)
        assert loaded is not None
        assert loaded.cursor == cursor
        assert loaded.shard_payloads == [{"shard": 0}, {"shard": 1}]
        assert loaded.shard_journals == [[], []]
        assert not loaded.orphaned_state

    def test_commit_prunes_superseded_state(self, tmp_path):
        checkpoint = ServeCheckpoint(tmp_path / "ckpt")
        for commit in (1, 2, 3):
            checkpoint.write_state(commit, [{}])
            checkpoint.commit(_cursor(commit_index=commit, n_shards=1))
        remaining = sorted(
            p.name for p in checkpoint.directory.glob("state-*")
        )
        assert remaining == ["state-000003"]

    def test_orphaned_state_dir_is_reported(self, tmp_path):
        cursor = _cursor()
        checkpoint = _write_checkpoint(tmp_path, cursor)
        # A crash after write_state but before commit leaves this behind.
        checkpoint.write_state(cursor.commit_index + 1, [{}, {}])
        loaded = _load(checkpoint)
        assert loaded is not None
        assert loaded.orphaned_state

    def test_load_folds_journals_in_commit_order(self, tmp_path):
        loaded = _load(_write_generation(tmp_path))
        assert loaded is not None
        assert (loaded.cursor.base_index, loaded.cursor.commit_index) == (3, 5)
        # Per shard, journal 4's union, then journal 5's.
        assert [
            [tuple(column.tolist() for column in union) for union in unions]
            for unions in loaded.shard_journals
        ] == [
            [([2, 4], [0, 2, 4], [1, 5, 3, 7]), ([4], [0, 1], [1])],
            [([1], [0, 1], [9]), ([6], [0, 0], [])],
        ]
        restored = ShardedMonitorPool.from_snapshots(
            loaded.shard_payloads, loaded.shard_journals
        )
        assert _state(restored) == _state(
            ShardedMonitorPool.from_snapshots(
                [
                    # Customer 2 holds item 1 in the base's open window
                    # and in journal 4.  Customer 4 is first seen
                    # mid-generation: only journal 4 has them.  Customer
                    # 6's only basket was empty, and registered them all
                    # the same.
                    _shard(50, (2, [1, 5], 4, 0.25), (4, [1, 3, 7], *_FRESH)),
                    _shard(50, (1, [9], *_FRESH), (6, [], *_FRESH)),
                ]
            )
        )
        assert not loaded.orphaned_state

    def test_live_journal_folds_to_the_live_state(self, tmp_path):
        # A pool's base plus its next batch's journal is the pool's
        # state after that batch, customers whose first basket is empty
        # included, and stays it through the next window close.
        pool = ShardedMonitorPool.create(WindowGrid.daily(30, 10), n_shards=2)
        pool.process_batch([DayBatch.of(0, [Basket.of(1, 0, [1, 2])])])
        checkpoint = ServeCheckpoint(tmp_path / "ckpt")
        checkpoint.write_state(3, pool.snapshot_shards())
        checkpoint.commit(_cursor())
        batch = (Basket.of(6, 1, []), Basket.of(7, 1, [4]), Basket.of(8, 1, []))
        pool.process_batch([DayBatch.of(1, [*batch, Basket.of(1, 1, [])])])
        checkpoint.write_state(4, pool.journal_shards(), base_index=3)
        checkpoint.commit(_cursor(commit_index=4, base_index=3))
        loaded = _load(checkpoint)
        assert loaded is not None
        restored = ShardedMonitorPool.from_snapshots(
            loaded.shard_payloads, loaded.shard_journals
        )
        assert _state(restored) == _state(pool)
        closed = ShardedMonitorPool.from_snapshots(
            loaded.shard_payloads, loaded.shard_journals
        )
        closed.finish()
        pool.finish()
        assert _state(closed) == _state(pool)

    def test_journal_is_sorted_and_lives_in_its_base(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = decode_snapshot(checkpoint.journal_path(3, 4).read_bytes())
        # The header holds the commit and the shard clocks; the unions
        # are columns, shard 0's customers then shard 1's.
        columns = {k: v for k, v in journal.items() if isinstance(v, np.ndarray)}
        assert {k: v for k, v in journal.items() if k not in columns} == {
            "commit_index": 4,
            "clocks": [40, 40],
        }
        assert {name: column.tolist() for name, column in columns.items()} == {
            "shard_offsets": [0, 2, 3],
            "customers": [2, 4, 1],
            "item_offsets": [0, 2, 4, 5],
            "items": [1, 5, 3, 7, 9],
        }
        assert sorted(p.name for p in checkpoint.state_dir(3).iterdir()) == [
            "journal-000004.snap",
            "journal-000005.snap",
            "shard-0000.snap",
            "shard-0001.snap",
        ]

    def test_orphaned_journal_is_reported(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        # A crash after a journal write but before its commit.
        checkpoint.write_state(6, [_entry(60), _entry(60)], base_index=3)
        loaded = _load(checkpoint)
        assert loaded is not None
        assert loaded.cursor.commit_index == 5
        assert loaded.orphaned_state

    def test_new_base_prunes_the_previous_generation(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        checkpoint.write_state(6, [{}, {}])
        checkpoint.commit(_cursor(commit_index=6))
        checkpoint.write_state(7, [_entry(70), _entry(70)], base_index=6)
        checkpoint.commit(_cursor(commit_index=7, base_index=6))
        assert [p.name for p in checkpoint.directory.glob("state-*")] == [
            "state-000006"
        ]
        assert checkpoint.journal_path(6, 7).exists()

    def test_counters_ride_inside_the_cursor(self, tmp_path):
        cursor = _cursor()
        loaded = _load(_write_checkpoint(tmp_path, cursor))
        assert loaded is not None
        assert loaded.cursor.counters["ingested"] == 100
        assert loaded.cursor.counters["checkpointed"] == 3


class TestInvalidCursors:
    def test_torn_cursor(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        tear_file(checkpoint.cursor_path, keep_fraction=0.4)
        with pytest.raises(CursorInvalid, match="torn or corrupt"):
            _load(checkpoint)

    def test_stream_mismatch(self, tmp_path):
        # load() leaves the stream pin to the loop, which compares the
        # cursor with the stream's digest once the digest is ready.
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        cursor = _load(checkpoint).cursor
        cursor.check_stream("aaaa")
        with pytest.raises(
            CursorInvalid, match="recorded over stream aaaa, resuming over zzzz"
        ):
            cursor.check_stream("zzzz")

    def test_config_mismatch(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        with pytest.raises(CursorInvalid, match="serving config"):
            _load(checkpoint, serve_fingerprint="zzzz")

    def test_shard_count_mismatch(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        with pytest.raises(CursorInvalid, match="shard"):
            _load(checkpoint, n_shards=3)

    def test_missing_state_file(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        checkpoint.shard_path(3, 1).unlink()
        with pytest.raises(CursorInvalid, match="missing or unreadable"):
            _load(checkpoint)

    def test_torn_state_file(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        tear_file(checkpoint.shard_path(3, 0), 0.3)
        with pytest.raises(CursorInvalid, match="torn"):
            _load(checkpoint)

    def test_version_1_cursor_is_version_drift(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        current = json.loads(checkpoint.cursor_path.read_text())
        # Version 1 had no base; version 2 named a base of JSON files;
        # version 3 kept the score table as JSON in its header; version
        # 4 had no stream offset and kept journals in their header;
        # version 5 kept the score table beside the shards; version 6
        # replaced one cursor.json in place.
        for version in (1, 2, 3, 4, 5, 6):
            payload = dict(current, version=version)
            if version < 5:
                del payload["stream_offset"]
            if version == 1:
                del payload["base_index"]
            checkpoint.cursor_path.write_text(json.dumps(payload))
            with pytest.raises(
                CursorInvalid,
                match=f"found version {version}, expected version {CURSOR_VERSION}",
            ):
                _load(checkpoint)

    def test_torn_journal(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 4)
        tear_file(journal, keep_fraction=0.5)
        with pytest.raises(CursorInvalid, match=f"{re.escape(str(journal))}: .*torn"):
            _load(checkpoint)

    def test_missing_journal(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 4)
        journal.unlink()
        with pytest.raises(
            CursorInvalid,
            match=f"{re.escape(str(journal))}: .*missing or unreadable",
        ):
            _load(checkpoint)

    def test_journal_naming_another_commit(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 5)
        _rewrite_journal(journal, commit_index=4)
        with pytest.raises(
            CursorInvalid,
            match=f"{re.escape(str(journal))}: journal names commit 4, "
            "expected 5",
        ):
            _load(checkpoint)

    def test_journal_missing_a_shard(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 5)
        payload = decode_snapshot(journal.read_bytes())
        # Journal 5 without shard 1: its clock, customers and items.
        end = int(payload["shard_offsets"][1])
        _rewrite_journal(
            journal,
            clocks=payload["clocks"][:1],
            shard_offsets=payload["shard_offsets"][:2],
            customers=payload["customers"][:end],
            item_offsets=payload["item_offsets"][: end + 1],
            items=payload["items"][: int(payload["item_offsets"][end])],
        )
        with pytest.raises(
            CursorInvalid,
            match=f"{re.escape(str(journal))}: malformed journal",
        ):
            _load(checkpoint)

    def test_journal_offsets_must_span_their_items(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 4)
        payload = decode_snapshot(journal.read_bytes())
        # One item too many for the offsets: [1, 5, 3, 7, 9, 9].
        _rewrite_journal(journal, items=np.append(payload["items"], 9))
        with pytest.raises(
            CursorInvalid,
            match=f"{re.escape(str(journal))}: malformed journal: .*"
            "'item_offsets' does not span 'items'",
        ):
            _load(checkpoint)

    def test_journal_customers_must_ascend_within_a_shard(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        journal = checkpoint.journal_path(3, 4)
        # Shard 0 holds customers 2 then 4; make it 4 then 2.
        _rewrite_journal(journal, customers=np.array([4, 2, 1]))
        with pytest.raises(
            CursorInvalid,
            match=f"{re.escape(str(journal))}: malformed journal: .*"
            "do not ascend within their shard",
        ):
            _load(checkpoint)

    def test_non_object_cursor(self, tmp_path):
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        checkpoint.cursor_path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CursorInvalid, match="not a JSON object"):
            _load(checkpoint)


def _cursor_names(checkpoint: ServeCheckpoint) -> list[str]:
    return sorted(p.name for p in checkpoint.directory.glob("cursor*.json"))


class _Crash(RuntimeError):
    """A simulated kill inside a commit."""


class TestCursorFiles:
    """Every commit writes ``cursor-<commit>.json``; the newest wins."""

    def test_each_commit_leaves_only_its_cursor(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        assert _cursor_names(checkpoint) == ["cursor-000005.json"]
        assert checkpoint.cursor_path == checkpoint.cursor_file(5)
        payload = json.loads(checkpoint.cursor_path.read_text())
        assert payload == _cursor(commit_index=5, base_index=3).to_payload()
        assert payload["version"] == CURSOR_VERSION == 7

    def test_newest_of_two_cursors_wins_and_the_next_commit_leaves_one(
        self, tmp_path, monkeypatch
    ):
        checkpoint = _write_generation(tmp_path)
        checkpoint.write_state(6, [_entry(60), _entry(60)], base_index=3)

        def crash(path, missing_ok=False):
            raise _Crash(f"killed before removing {path.name}")

        # Killed between cursor 6's rename and cursor 5's removal.
        with monkeypatch.context() as patch:
            patch.setattr(type(checkpoint.directory), "unlink", crash)
            with pytest.raises(_Crash, match="cursor-000005.json"):
                checkpoint.commit(_cursor(commit_index=6, base_index=3))
        assert _cursor_names(checkpoint) == [
            "cursor-000005.json",
            "cursor-000006.json",
        ]
        resumed = ServeCheckpoint(checkpoint.directory)
        loaded = _load(resumed)
        assert loaded is not None
        assert loaded.cursor.commit_index == 6
        assert not loaded.orphaned_state
        resumed.write_state(7, [_entry(70), _entry(70)], base_index=3)
        resumed.commit(_cursor(commit_index=7, base_index=3))
        assert _cursor_names(resumed) == ["cursor-000007.json"]

    def test_cursor_named_for_another_commit_is_invalid(self, tmp_path):
        checkpoint = _write_generation(tmp_path)
        checkpoint.cursor_file(5).rename(checkpoint.cursor_file(9))
        with pytest.raises(
            CursorInvalid, match="cursor-000009.json: cursor names commit 5"
        ):
            _load(checkpoint)

    def test_leftover_version_6_cursor_is_version_drift(self, tmp_path):
        # Version 6 replaced one cursor.json in place.
        checkpoint = _write_checkpoint(tmp_path, _cursor())
        legacy = checkpoint.directory / "cursor.json"
        checkpoint.cursor_file(3).rename(legacy)
        payload = json.loads(legacy.read_text())
        legacy.write_text(json.dumps(dict(payload, version=6)))
        assert checkpoint.cursor_path == legacy
        with pytest.raises(
            CursorInvalid,
            match=f"found version 6, expected version {CURSOR_VERSION}",
        ):
            _load(checkpoint)
        # Even at the current version it names no commit.
        legacy.write_text(json.dumps(payload))
        with pytest.raises(CursorInvalid, match="cursor.json: cursor names"):
            _load(checkpoint)
        # Any numbered cursor is newer, and the first commit removes it.
        checkpoint = ServeCheckpoint(checkpoint.directory)
        checkpoint.write_state(4, [{}, {}])
        checkpoint.commit(_cursor(commit_index=4))
        assert _load(checkpoint).cursor.commit_index == 4
        assert _cursor_names(checkpoint) == ["cursor-000004.json"]

    def test_first_commit_removes_every_other_cursor_before_pruning(
        self, tmp_path
    ):
        # What an abandoned run can leave: a newer cursor (say torn
        # before a fallback to the stream head), the version-6 cursor,
        # cursor temp files, and generations.
        checkpoint = _write_generation(tmp_path)
        directory = checkpoint.directory
        checkpoint.cursor_file(5).rename(checkpoint.cursor_file(9))
        tear_file(checkpoint.cursor_file(9), keep_fraction=0.5)
        (directory / "cursor.json").write_text("{}")
        leftovers = [".cursor-000010.json.tmp-4242", ".cursor.json.tmp-7"]
        for name in leftovers:
            (directory / name).write_text("{")
        (directory / "manifest.json").write_text("{}")
        restarted = ServeCheckpoint(directory)
        restarted.write_state(1, [{}, {}])
        restarted.commit(_cursor(commit_index=1))
        assert sorted(p.name for p in directory.iterdir()) == [
            "cursor-000001.json",
            "manifest.json",
            "state-000001",
        ]
        assert _load(restarted).cursor.commit_index == 1

    def test_journal_commit_lists_no_directory(self, tmp_path, monkeypatch):
        import os

        listed = []
        for name in ("scandir", "listdir"):
            original = getattr(os, name)

            def recording(*args, _original=original, _name=name, **kwargs):
                listed.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(os, name, recording)
        checkpoint = ServeCheckpoint(tmp_path / "ckpt")
        checkpoint.write_state(3, [{}, {}])
        checkpoint.commit(_cursor())
        assert listed, "the first commit sweeps the directory"
        listed.clear()
        for commit in (4, 5):
            checkpoint.write_state(
                commit, [_entry(commit), _entry(commit)], base_index=3
            )
            checkpoint.commit(_cursor(commit_index=commit, base_index=3))
        assert listed == []
        checkpoint.write_state(6, [{}, {}])
        checkpoint.commit(_cursor(commit_index=6))
        assert listed, "a commit that moves the base prunes"
        assert sorted(p.name for p in checkpoint.directory.iterdir()) == [
            "cursor-000006.json",
            "state-000006",
        ]
