"""Tests for the recorded-stream fixture format (repro.synth.stream)."""

from __future__ import annotations

import json

import pytest

from repro.data import Basket
from repro.errors import ConfigError, SchemaError
from repro.synth.stream import (
    RECORDED_STREAM_VERSION,
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
        full = list(replay_stream(stream_path))
        # The same stream with a blank line after its first day batch:
        # skipping counts day batches, not lines.
        header, first, *rest = stream_path.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("".join([header, first, "\n", *rest]))
        for path in (stream_path, spaced):
            tail = list(replay_stream(path, skip_days=3))
            assert [b.day for b in tail] == [b.day for b in full[3:]], path

    def test_skip_all_days_yields_nothing(self, stream_path):
        n_days = sum(1 for _ in replay_stream(stream_path))
        assert list(replay_stream(stream_path, skip_days=n_days)) == []

    def test_negative_skip_rejected(self, stream_path):
        with pytest.raises(ConfigError, match="skip_days"):
            list(replay_stream(stream_path, skip_days=-1))

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


class TestSkipDaysEdges:
    """The resume path's skip semantics, edge by edge (soak satellite)."""

    def test_skip_zero_is_the_full_replay(self, stream_path):
        full = list(replay_stream(stream_path))
        skipped = list(replay_stream(stream_path, skip_days=0))
        assert [b.day for b in skipped] == [b.day for b in full]
        assert sum(b.n_baskets for b in skipped) == sum(
            b.n_baskets for b in full
        )

    def test_skip_past_end_yields_nothing(self, stream_path):
        n_days = sum(1 for _ in replay_stream(stream_path))
        assert list(replay_stream(stream_path, skip_days=n_days + 5)) == []

    def test_skip_exactly_to_final_batch(self, stream_path):
        full = list(replay_stream(stream_path))
        tail = list(replay_stream(stream_path, skip_days=len(full) - 1))
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
