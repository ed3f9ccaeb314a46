"""Tests for the recorded-stream fixture format (repro.synth.stream)."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from repro.data import Basket
from repro.errors import ConfigError, DataError, SchemaError
from repro.synth.stream import (
    RECORDED_STREAM_VERSION,
    check_replay_start,
    digest_fingerprint,
    read_stream_header,
    record_stream,
    replay_stream,
    stream_calendar,
    stream_fingerprint,
)


class TestRecordReplay:
    def test_round_trip(self, serve_dataset, day_ordered_baskets, stream_path):
        replayed = [
            basket
            for batch in replay_stream(stream_path)
            for basket in batch.baskets
        ]
        assert len(replayed) == len(day_ordered_baskets)
        for original, copy in zip(day_ordered_baskets, replayed, strict=True):
            assert copy.customer_id == original.customer_id
            assert copy.day == original.day
            assert copy.items == original.items
            assert copy.monetary == original.monetary

    def test_batches_are_day_grouped_and_ordered(self, stream_path):
        days = [batch.day for batch in replay_stream(stream_path)]
        assert days == sorted(days)
        assert len(days) == len(set(days))

    def test_header_calendar_round_trips(self, serve_dataset, stream_path):
        calendar = stream_calendar(read_stream_header(stream_path))
        assert calendar == serve_dataset.calendar

    def test_skip_days_resumes_mid_stream(self, stream_path, tmp_path):
        """Starting at a batch's ``end`` yields exactly the batches after
        it, ends included, also where blank lines lie between them."""
        # The same stream with a blank line after its first day batch.
        header, first, *rest = stream_path.read_bytes().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes(b"".join([header, first, b"\n", *rest]))
        for path in (stream_path, spaced):
            full = list(replay_stream(path))
            assert full[0].end == len(header) + len(first), path
            for k in (0, 1, 3, len(full) - 2):
                tail = list(replay_stream(path, start=full[k].end))
                assert tail == full[k + 1 :], (path, k)
                assert [b.end for b in tail] == [b.end for b in full[k + 1 :]]

    def test_skip_all_days_yields_nothing(self, stream_path):
        last = list(replay_stream(stream_path))[-1]
        assert last.end == stream_path.stat().st_size
        assert list(replay_stream(stream_path, start=last.end)) == []

    def test_negative_skip_rejected(self, stream_path):
        with pytest.raises(ConfigError, match="start -1"):
            list(replay_stream(stream_path, start=-1))

    def test_start_must_begin_a_day_line(self, stream_path):
        full = list(replay_stream(stream_path))
        header_end = len(stream_path.read_bytes().splitlines(keepends=True)[0])
        size = stream_path.stat().st_size
        # Inside the header, inside a day line, past the file's end.
        for start in (1, header_end - 1, full[1].end - 1, full[0].end + 1, size + 1):
            with pytest.raises(ConfigError, match=f"replay start {start} "):
                list(replay_stream(stream_path, start=start))
            with pytest.raises(ConfigError, match=f"replay start {start} "):
                check_replay_start(stream_path, start, last_day=-1)
        # A start is the end of the last consumed day line: it must
        # follow that line's day, -1 when none was consumed.
        for start, day in (
            (0, -1), (header_end, -1), (full[1].end, full[1].day), (size, full[-1].day)
        ):
            # It returns where the replay continues: 0 is the header's end.
            assert check_replay_start(stream_path, start, last_day=day) == (
                start or header_end
            )
            with pytest.raises(ConfigError, match="not the resumed state's day"):
                check_replay_start(stream_path, start, last_day=day + 1)

    def test_fingerprint_is_content_stable(
        self, serve_dataset, day_ordered_baskets, stream_path, tmp_path
    ):
        copy = record_stream(
            day_ordered_baskets,
            tmp_path / "copy.jsonl",
            calendar=serve_dataset.calendar,
        )
        assert stream_fingerprint(copy) == stream_fingerprint(stream_path)

    def test_fingerprint_changes_with_content(
        self, serve_dataset, day_ordered_baskets, stream_path, tmp_path
    ):
        other = record_stream(
            day_ordered_baskets[:-1],
            tmp_path / "other.jsonl",
            calendar=serve_dataset.calendar,
        )
        assert stream_fingerprint(other) != stream_fingerprint(stream_path)

    @pytest.mark.parametrize("size", [0, 1 << 20, (5 << 19) + 7])
    def test_fingerprint_digests_every_byte(self, tmp_path, size):
        """Whole buffers, a partial last one and an empty file all hash
        to the digest of the file's bytes."""
        path = tmp_path / "bytes.bin"
        path.write_bytes(random.Random(size).randbytes(size))
        want = hashlib.sha1(path.read_bytes()).hexdigest()[:16]
        assert stream_fingerprint(path) == want


class TestPrefixDigest:
    """The digest of a stream prefix, and the replay that carries it."""

    def test_fingerprint_of_a_prefix(self, stream_path):
        data = stream_path.read_bytes()
        for end in (0, 1, 1 << 20, len(data) - 1, len(data), len(data) + 5):
            want = hashlib.sha1(data[:end]).hexdigest()[:16]
            assert stream_fingerprint(stream_path, end) == want, end
        assert stream_fingerprint(stream_path, None) == stream_fingerprint(
            stream_path, len(data)
        )

    def test_prefix_digest_is_handed_on(self, stream_path):
        data = stream_path.read_bytes()
        digest = hashlib.sha1()
        stream_fingerprint(stream_path, 1000, digest=digest)
        digest.update(data[1000:])
        assert digest_fingerprint(digest) == stream_fingerprint(stream_path)

    def test_replay_digest_covers_each_batch_prefix(self, stream_path, tmp_path):
        """At every yield the digest holds ``[0, batch.end)``: the header,
        every day line and the blank lines before the batch, never the
        blank lines after the last one; a resumed replay carries on the
        digest of its prefix."""
        header, first, *rest = stream_path.read_bytes().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes(b"".join([header, b"\n", first, b" \n", *rest, b"\n\n"]))
        for path in (stream_path, spaced):
            digest = hashlib.sha1()
            batches = []
            for batch in replay_stream(path, digest=digest):
                assert digest_fingerprint(digest) == stream_fingerprint(path, batch.end)
                batches.append(batch)
            assert digest_fingerprint(digest) == stream_fingerprint(
                path, batches[-1].end
            )
            start = batches[2].end
            digest = hashlib.sha1()
            stream_fingerprint(path, start, digest=digest)
            for batch in replay_stream(path, start=start, digest=digest):
                assert digest_fingerprint(digest) == stream_fingerprint(path, batch.end)
            assert digest_fingerprint(digest) == stream_fingerprint(
                path, batches[-1].end
            )

    def test_header_only_replay_digests_the_header(self, serve_dataset, tmp_path):
        path = record_stream(
            [], tmp_path / "empty.jsonl", calendar=serve_dataset.calendar
        )
        digest = hashlib.sha1()
        assert list(replay_stream(path, digest=digest)) == []
        assert digest_fingerprint(digest) == stream_fingerprint(path)


class TestRejection:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="not a recorded stream"):
            read_stream_header(path)

    def test_foreign_schema(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"schema": "something-else"}) + "\n")
        with pytest.raises(SchemaError, match="not a recorded stream"):
            read_stream_header(path)

    def test_version_drift_names_both_versions(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.recorded-stream",
                    "version": RECORDED_STREAM_VERSION + 1,
                    "calendar": {"start": "2004-01-01", "n_months": 10},
                }
            )
            + "\n"
        )
        with pytest.raises(
            SchemaError,
            match=(
                f"found version {RECORDED_STREAM_VERSION + 1}, "
                f"expected version {RECORDED_STREAM_VERSION}"
            ),
        ):
            read_stream_header(path)

    def test_replay_validates_header_first(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(SchemaError, match="not a recorded stream"):
            list(replay_stream(path))

    def test_day_regression_rejected(
        self, serve_dataset, tmp_path
    ):
        baskets = [
            Basket.of(customer_id=1, day=5, items=[1], monetary=1.0),
            Basket.of(customer_id=1, day=9, items=[1], monetary=1.0),
        ]
        path = record_stream(
            baskets, tmp_path / "ok.jsonl", calendar=serve_dataset.calendar
        )
        lines = path.read_text().splitlines()
        lines.append(json.dumps({"day": 7, "baskets": [[1, [1], 1.0]]}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="regress"):
            list(replay_stream(path))

    def test_torn_day_line_names_line_number(
        self, serve_dataset, tmp_path
    ):
        baskets = [Basket.of(customer_id=1, day=5, items=[1], monetary=1.0)]
        path = record_stream(
            baskets, tmp_path / "torn.jsonl", calendar=serve_dataset.calendar
        )
        with path.open("a") as sink:
            sink.write('{"day": 6, "baskets": [[1,')
        with pytest.raises(SchemaError, match=":3: corrupt or truncated"):
            list(replay_stream(path))

    @pytest.mark.parametrize(
        "line",
        [
            {"day": 6, "baskets": [[12.7, [3.9], 1.0]]},
            {"day": 6, "baskets": [[12, [3.9], 1.0]]},
            {"day": 6, "baskets": [["12", ["3"], "1.5"]]},
            {"day": 6, "baskets": [["12", [3], 1.5]]},
            {"day": 6, "baskets": [[12, ["3"], 1.5]]},
            {"day": True, "baskets": []},
            {"day": -1, "baskets": []},
            {"day": -1, "baskets": [[1, [1], 1.0]]},
            {"day": 6, "baskets": [[1, [1], -1.0]]},
            {"day": 6, "baskets": [[1, [1], 10**400]]},
            '{"day": 6, "baskets": [[true, [false], Infinity]]}',
            '{"day": 6, "baskets": [[1, [2], NaN]]}',
            '{"day": 6, "baskets": [[1, [2], true]]}',
            '{"day": 6, "baskets": [[1, [2], -Infinity]]}',
            '{"day": 6, "baskets": [[1, [2], 1e400]]}',
            {"day": 6, "baskets": [[2**63, [1], 1.0]]},
            {"day": 6, "baskets": [[3, [2**64], 1.0]]},
        ],
        ids=[
            "float-ids",
            "float-item",
            "string-fields",
            "string-id",
            "string-item",
            "bool-day",
            "negative-day",
            "negative-day-with-basket",
            "negative-monetary",
            "monetary-past-float-range",
            "boolean-id-and-item-infinite-amount",
            "nan-amount",
            "boolean-amount",
            "negative-infinite-amount",
            "amount-literal-past-float-range",
            "id-past-int64",
            "item-past-int64",
        ],
    )
    def test_malformed_day_line_names_line_number(
        self, serve_dataset, tmp_path, line
    ):
        """A hostile first day line is refused where it stands, never
        coerced into a basket or yielded for serving to trip over."""
        path = record_stream(
            [], tmp_path / "hostile.jsonl", calendar=serve_dataset.calendar
        )
        with path.open("a") as sink:
            # A string is the raw line: JSON that json.dumps cannot spell.
            sink.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
            list(replay_stream(path))

    def test_record_refuses_day_regression(self, serve_dataset, tmp_path):
        baskets = [
            Basket.of(customer_id=1, day=9, items=[1], monetary=1.0),
            Basket.of(customer_id=4, day=5, items=[1], monetary=1.0),
        ]
        path = tmp_path / "backwards.jsonl"
        with pytest.raises(DataError, match="customer 4: basket day 5"):
            record_stream(baskets, path, calendar=serve_dataset.calendar)
        assert not path.exists()


class TestSkipDaysEdges:
    """The resume path's start offset, edge by edge: a resume skips the
    days it has consumed by seeking past them."""

    def test_skip_zero_is_the_full_replay(self, stream_path):
        full = list(replay_stream(stream_path))
        header_end = len(stream_path.read_bytes().splitlines(keepends=True)[0])
        for start in (0, header_end):
            skipped = list(replay_stream(stream_path, start=start))
            assert skipped == full
            assert [b.end for b in skipped] == [b.end for b in full]

    def test_skip_past_end_yields_nothing(self, stream_path, tmp_path):
        # Blank lines after the last day: no day lies past its end.
        padded = tmp_path / "padded.jsonl"
        padded.write_bytes(stream_path.read_bytes() + b"\n  \n")
        last = list(replay_stream(padded))[-1]
        for start in (last.end, last.end + 1, padded.stat().st_size):
            assert list(replay_stream(padded, start=start)) == []

    def test_skip_exactly_to_final_batch(self, stream_path):
        full = list(replay_stream(stream_path))
        tail = list(replay_stream(stream_path, start=full[-2].end))
        assert len(tail) == 1
        last = tail[0]
        assert last.day == full[-1].day
        assert [b.customer_id for b in last.baskets] == [
            b.customer_id for b in full[-1].baskets
        ]

    def test_fingerprint_mismatch_after_partial_skip_falls_back(
        self, stream_path, serve_config, tmp_path
    ):
        """A cursor must never skip into a *different* stream.

        Serve a few batches of stream A, then swap the file contents for
        stream B: the committed cursor's stream fingerprint no longer
        matches the header being replayed, so the resume must restart
        from the head of B (counting ``serve.cursor_invalid``) instead
        of silently applying A's skip count to B.
        """
        from repro.obs import MetricsRegistry, use_metrics
        from repro.obs import metrics as obs_metrics
        from repro.serve import offline_sweep_stream, serve_stream
        from repro.synth import ScenarioConfig, generate_dataset

        working = tmp_path / "stream.jsonl"
        working.write_bytes(stream_path.read_bytes())
        ckpt = tmp_path / "ckpt"
        partial = serve_stream(
            working, ckpt, batch_size=120, config=serve_config, max_batches=2
        )
        assert not partial.finished
        assert partial.day_batches_consumed > 0

        other = generate_dataset(
            ScenarioConfig(
                n_loyal=6, n_churners=6, seed=11, n_months=6, onset_month=4
            )
        )
        record_stream(
            sorted(other.log, key=lambda b: (b.day, b.customer_id)),
            working,
            calendar=other.calendar,
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            resumed = serve_stream(working, ckpt, batch_size=120)
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert not resumed.resumed  # restarted from the head of B
        assert resumed.finished
        reference = offline_sweep_stream(working)
        assert resumed.fingerprint() == reference.fingerprint()
