"""Transient checkpoint-I/O faults and the bounded retry-with-backoff.

The soak harness's ``ckpt_io`` site injects through exactly this hook;
these tests pin the retry budget semantics in isolation.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, use_metrics
from repro.obs import metrics as obs_metrics
from repro.serve.checkpoint import (
    CheckpointIOExhausted,
    ServeCheckpoint,
    ServeCursor,
)


def _cursor(commit_index: int) -> ServeCursor:
    return ServeCursor(
        commit_index=commit_index,
        base_index=commit_index,
        stream_offset=commit_index,
        day_batches_consumed=commit_index,
        counters={"ingested": 1, "scored": 1, "flagged": 0,
                  "checkpointed": commit_index},
        stream_fingerprint="stream-fp",
        serve_fingerprint="serve-fp",
        n_shards=1,
        finished=False,
    )


def _flaky(operation: str, failures: int):
    """An io_fault hook failing the first ``failures`` attempts."""
    seen: list[tuple[str, int, int]] = []

    def hook(op: str, commit_index: int, attempt: int) -> None:
        seen.append((op, commit_index, attempt))
        if op == operation and attempt < failures:
            raise OSError(errno.ENOSPC, "no space left on device")

    hook.seen = seen  # type: ignore[attr-defined]
    return hook


class TestRetryBudget:
    def test_transient_state_write_fault_cleared_by_retry(self, tmp_path):
        registry = MetricsRegistry()
        checkpoint = ServeCheckpoint(
            tmp_path, io_retries=2, io_backoff_s=0.0,
            io_fault=_flaky("write_state", 1),
        )
        with use_metrics(registry):
            directory = checkpoint.write_state(1, [{"shard": 0}])
        assert (directory / checkpoint.shard_path(1, 0).name).exists()
        assert registry.counter_value(
            obs_metrics.SERVE_CHECKPOINT_IO_RETRIES
        ) == 1

    def test_transient_commit_fault_cleared_by_retry(self, tmp_path):
        checkpoint = ServeCheckpoint(
            tmp_path, io_retries=1, io_backoff_s=0.0,
            io_fault=_flaky("commit", 1),
        )
        checkpoint.write_state(1, [{"shard": 0}])
        checkpoint.commit(_cursor(1))
        payload = json.loads(checkpoint.cursor_path.read_text())
        assert payload["commit_index"] == 1

    def test_persistent_fault_exhausts_budget(self, tmp_path):
        checkpoint = ServeCheckpoint(
            tmp_path, io_retries=2, io_backoff_s=0.0,
            io_fault=_flaky("write_state", 99),
        )
        with pytest.raises(CheckpointIOExhausted, match="3 attempt"):
            checkpoint.write_state(1, [{"shard": 0}])

    def test_exhausted_commit_leaves_previous_cursor_authoritative(
        self, tmp_path
    ):
        checkpoint = ServeCheckpoint(tmp_path, io_backoff_s=0.0)
        checkpoint.write_state(1, [{"shard": 0}])
        checkpoint.commit(_cursor(1))
        broken = ServeCheckpoint(
            tmp_path, io_retries=1, io_backoff_s=0.0,
            io_fault=_flaky("commit", 99),
        )
        broken.write_state(2, [{"shard": 0}])
        with pytest.raises(CheckpointIOExhausted):
            broken.commit(_cursor(2))
        # The commit point never moved: resume reworks exactly batch 2.
        payload = json.loads(checkpoint.cursor_path.read_text())
        assert payload["commit_index"] == 1
        loaded = checkpoint.load(
            stream_fingerprint="stream-fp",
            serve_fingerprint="serve-fp",
            n_shards=1,
        )
        assert loaded is not None
        assert loaded.cursor.commit_index == 1
        assert loaded.orphaned_state  # the rework marker

    def test_zero_retries_fails_on_first_fault(self, tmp_path):
        checkpoint = ServeCheckpoint(
            tmp_path, io_retries=0, io_backoff_s=0.0,
            io_fault=_flaky("write_state", 1),
        )
        with pytest.raises(CheckpointIOExhausted, match="1 attempt"):
            checkpoint.write_state(1, [{"shard": 0}])

    def test_hook_sees_operation_commit_and_attempt(self, tmp_path):
        hook = _flaky("write_state", 1)
        checkpoint = ServeCheckpoint(
            tmp_path, io_retries=2, io_backoff_s=0.0, io_fault=hook
        )
        checkpoint.write_state(7, [{"shard": 0}])
        assert hook.seen[:2] == [
            ("write_state", 7, 0),
            ("write_state", 7, 1),
        ]

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="io_retries"):
            ServeCheckpoint(tmp_path, io_retries=-1)
        with pytest.raises(ConfigError, match="io_backoff_s"):
            ServeCheckpoint(tmp_path, io_backoff_s=-0.1)
