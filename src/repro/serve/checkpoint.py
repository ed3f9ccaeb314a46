"""Durable serve checkpoints: state generations sealed by an atomic cursor.

The serving loop's crash contract — *max rework after a crash is one
batch* — is carried entirely by the write ordering here:

1. :meth:`ServeCheckpoint.write_state` writes the batch's state, each
   file atomically, where the current cursor does not reference it yet;
2. :meth:`ServeCheckpoint.commit` atomically replaces ``cursor.json``
   — the single commit point — with a cursor referencing that state,
   then prunes superseded generations.

State is kept as one *generation* per ``state-<base>/`` directory: a
**base** (one snapshot file ``shard-<i>.snap`` per shard plus the score
table ``scores.snap``, the full state as of commit ``base``) and the
**journals** ``journal-<k>.snap`` of the commits after it.  The model's
state only moves at window boundaries — between two closes a batch adds
nothing but each customer's open-window items — so a commit whose batch
closed no window writes only its journal: per shard, the batch's
per-customer item unions and the shard clock.  A batch that closes a
window, the first commit in a directory and the finish seal write a
new base instead.  :meth:`ServeCheckpoint.load` decodes the cursor's
base and folds its journals in, in commit order: a journal only adds
to the open window, so the fold touches the open-window columns and
the shard clock, all in numpy.  Every state file is one checksummed
:func:`~repro.runtime.snapshot.encode_snapshot` container whose arrays
are columns: a shard snapshot's, the score table's, and a journal's
unions (its header holds only its commit and the shard clocks).

A crash before the commit leaves the previous cursor (and its intact
generation) authoritative: the resumed run replays exactly the one
uncommitted batch.  The orphaned newer state — ``state-<commit+1>/`` or
``journal-<commit+1>.snap`` — doubles as the rework marker:
:meth:`ServeCheckpoint.load` reports it so the loop can count the
rework in telemetry.

A cursor is only trusted when it matches the run being resumed: the
recorded stream's content fingerprint, the serving-config fingerprint
and the shard count are all pinned inside it.  Any mismatch — or a
torn/corrupt cursor, a torn, missing, altered (checksum mismatch) or
misnumbered state file, or a malformed journal — raises
:class:`CursorInvalid`, and
the loop falls back to restarting from the stream head (Snippet-2
semantics: idempotent score upsert, warning logged) rather than
resuming into the wrong data.
"""

from __future__ import annotations

import json
import logging
import operator
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write_bytes, atomic_write_json
from repro.core.streaming import pair_keys
from repro.errors import ConfigError, ServeError, SnapshotError
from repro.obs import get_metrics
from repro.obs import metrics as obs_metrics
from repro.runtime.snapshot import (
    check_span,
    decode_snapshot,
    encode_snapshot,
    fold_unions,
    payload_columns,
)

__all__ = [
    "CURSOR_NAME",
    "CURSOR_SCHEMA",
    "CURSOR_VERSION",
    "SCORES_NAME",
    "CursorInvalid",
    "CheckpointIOExhausted",
    "ServeCursor",
    "LoadedCheckpoint",
    "ServeCheckpoint",
]

logger = logging.getLogger(__name__)

#: Hook type for transient-I/O fault injection: called before every
#: write attempt as ``(operation, commit_index, attempt)`` and may raise
#: :class:`OSError` to simulate ENOSPC/EACCES on the checkpoint volume.
IOFaultHook = Callable[[str, int, int], None]

CURSOR_NAME = "cursor.json"
CURSOR_SCHEMA = "repro.serve-cursor"
CURSOR_VERSION = 5
#: Score-table file inside each base.
SCORES_NAME = "scores.snap"

#: Counter names a cursor persists (the Snippet-2 runbook quartet).
_COUNTER_KEYS = ("ingested", "scored", "flagged", "checkpointed")


class CursorInvalid(ServeError):
    """The checkpoint cannot be resumed from: torn cursor, foreign
    schema/version, a stream/config/shard mismatch, or a torn, missing,
    altered or misnumbered state file or journal.  The serving loop
    treats this as "restart from the stream head", never as fatal."""


class CheckpointIOExhausted(ServeError):
    """A checkpoint write kept failing with :class:`OSError` after every
    bounded retry — the volume is genuinely unhealthy (persistent
    ENOSPC/EACCES), not transiently flaky, so the run must stop.  The
    committed cursor is untouched: a later resume reworks at most one
    batch, exactly as after a crash."""


@dataclass(frozen=True)
class ServeCursor:
    """The committed position of a serving run.

    ``commit_index`` is the last committed batch; ``base_index`` names
    the generation holding its state — the base ``state-<base_index>/``
    plus journals ``base_index + 1 … commit_index`` (equal indices: the
    commit wrote the base itself).  ``stream_offset`` is the byte offset
    in the recorded stream just past the last consumed day line, where
    a resume starts replaying (``0``: nothing consumed), and
    ``day_batches_consumed`` counts those days, for reporting (whole
    days — a checkpoint batch never splits one).  Counters ride inside
    the cursor so a resume restores them atomically with the position.
    """

    commit_index: int
    base_index: int
    stream_offset: int
    day_batches_consumed: int
    counters: dict[str, int]
    stream_fingerprint: str
    serve_fingerprint: str
    n_shards: int
    finished: bool

    def to_payload(self) -> dict:
        return {
            "schema": CURSOR_SCHEMA,
            "version": CURSOR_VERSION,
            "commit_index": self.commit_index,
            "base_index": self.base_index,
            "stream_offset": self.stream_offset,
            "day_batches_consumed": self.day_batches_consumed,
            "counters": {
                key: int(self.counters.get(key, 0)) for key in _COUNTER_KEYS
            },
            "stream_fingerprint": self.stream_fingerprint,
            "serve_fingerprint": self.serve_fingerprint,
            "n_shards": self.n_shards,
            "finished": self.finished,
        }

    @classmethod
    def from_payload(cls, payload: object) -> ServeCursor:
        """Validate and revive a cursor payload.

        Raises
        ------
        CursorInvalid
            On any schema/version/shape mismatch (version drift names
            the found and expected versions).
        """
        if not isinstance(payload, dict):
            raise CursorInvalid(f"cursor is not a JSON object: {payload!r}")
        if payload.get("schema") != CURSOR_SCHEMA:
            raise CursorInvalid(
                f"cursor schema {payload.get('schema')!r} is not "
                f"{CURSOR_SCHEMA!r}"
            )
        if payload.get("version") != CURSOR_VERSION:
            raise CursorInvalid(
                f"cursor version drift: found version "
                f"{payload.get('version')!r}, expected version "
                f"{CURSOR_VERSION}"
            )
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            raise CursorInvalid("cursor counters must be an object")
        try:
            cursor = cls(
                commit_index=int(payload["commit_index"]),
                base_index=int(payload["base_index"]),
                stream_offset=int(payload["stream_offset"]),
                day_batches_consumed=int(payload["day_batches_consumed"]),
                counters={
                    key: int(counters.get(key, 0)) for key in _COUNTER_KEYS
                },
                stream_fingerprint=str(payload["stream_fingerprint"]),
                serve_fingerprint=str(payload["serve_fingerprint"]),
                n_shards=int(payload["n_shards"]),
                finished=bool(payload["finished"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CursorInvalid(f"cursor missing or malformed field: {exc}") from exc
        if not 0 <= cursor.base_index <= cursor.commit_index:
            raise CursorInvalid(
                f"cursor base {cursor.base_index} is not in "
                f"[0, commit {cursor.commit_index}]"
            )
        return cursor


@dataclass(frozen=True)
class LoadedCheckpoint:
    """Everything a resume needs, read back from a valid checkpoint."""

    cursor: ServeCursor
    #: One snapshot payload per shard as of the cursor's commit: the
    #: base with every journal after it folded in.
    shard_payloads: list[dict]
    #: The score table (only window closes change it, and every close
    #: writes a base, so the base's table is current).
    scores: dict
    #: State newer than the cursor exists (``state-<commit+1>/`` or
    #: ``journal-<commit+1>.snap``): a previous run crashed between its
    #: state write and the cursor commit, so the resumed run will
    #: rework exactly that one batch.
    orphaned_state: bool


class ServeCheckpoint:
    """One serving run's checkpoint directory (see module docstring).

    Parameters
    ----------
    directory:
        The durable run directory (cursor + state generations +
        manifest).
    io_retries:
        Transient-:class:`OSError` budget per write operation: a state
        or cursor write that raises (ENOSPC, EACCES, a flaky NFS mount)
        is retried up to this many times with exponential backoff before
        :class:`CheckpointIOExhausted` stops the run.  ``0`` disables
        the retry path (first failure is final).
    io_backoff_s:
        Base backoff before the first retry; doubles per attempt.
    io_fault:
        Test/chaos hook called before every write attempt as
        ``(operation, commit_index, attempt)``; raising :class:`OSError`
        from it simulates a transient checkpoint-volume failure.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        io_retries: int = 2,
        io_backoff_s: float = 0.05,
        io_fault: IOFaultHook | None = None,
    ) -> None:
        if io_retries < 0:
            raise ConfigError(f"io_retries must be >= 0, got {io_retries}")
        if io_backoff_s < 0:
            raise ConfigError(
                f"io_backoff_s must be >= 0, got {io_backoff_s}"
            )
        self.directory = Path(directory)
        self.io_retries = int(io_retries)
        self.io_backoff_s = float(io_backoff_s)
        self.io_fault = io_fault

    @property
    def cursor_path(self) -> Path:
        return self.directory / CURSOR_NAME

    def state_dir(self, base_index: int) -> Path:
        """The generation directory whose base commit ``base_index`` wrote."""
        return self.directory / f"state-{base_index:06d}"

    def shard_path(self, base_index: int, shard: int) -> Path:
        """Shard ``shard``'s snapshot in the base commit ``base_index`` wrote."""
        return self.state_dir(base_index) / f"shard-{shard:04d}.snap"

    def journal_path(self, base_index: int, commit_index: int) -> Path:
        """The journal commit ``commit_index`` wrote on top of ``base_index``."""
        return self.state_dir(base_index) / f"journal-{commit_index:06d}.snap"

    # ------------------------------------------------------------------
    # Write protocol: state first, cursor second (the commit point).
    # ------------------------------------------------------------------
    def _with_io_retry(
        self,
        operation: str,
        commit_index: int,
        write: Callable[[], Path],
    ) -> Path:
        """Run one durable write under the bounded retry-with-backoff.

        Each failed attempt counts ``serve.checkpoint_io_retries`` and
        sleeps ``io_backoff_s * 2**attempt`` before the next try; when
        the budget is spent the last :class:`OSError` is re-raised
        wrapped in :class:`CheckpointIOExhausted`.
        """
        registry = get_metrics()
        last: OSError | None = None
        for attempt in range(self.io_retries + 1):
            try:
                if self.io_fault is not None:
                    self.io_fault(operation, commit_index, attempt)
                return write()
            except OSError as exc:
                last = exc
                if attempt >= self.io_retries:
                    break
                registry.counter(
                    obs_metrics.SERVE_CHECKPOINT_IO_RETRIES
                ).inc()
                logger.warning(
                    "checkpoint %s of commit %d failed (attempt %d/%d), "
                    "retrying: %s",
                    operation,
                    commit_index,
                    attempt + 1,
                    self.io_retries + 1,
                    exc,
                )
                time.sleep(self.io_backoff_s * (2**attempt))
        raise CheckpointIOExhausted(
            f"checkpoint {operation} of commit {commit_index} still "
            f"failing after {self.io_retries + 1} attempt(s): {last}"
        ) from last

    def write_state(
        self,
        commit_index: int,
        shard_payloads: list[dict],
        scores: dict | None = None,
        *,
        base_index: int | None = None,
    ) -> Path:
        """Write one commit's state where the current cursor does not
        reference it yet, so a crash mid-write cannot tear the committed
        state.

        Without ``base_index`` this writes a **base**: ``shard_payloads``
        are per-shard snapshots, written with ``scores`` into a fresh
        ``state-<commit_index>/`` (whatever an abandoned run left under
        that name is dropped first); returns the directory.  With
        ``base_index`` it writes a **journal** into that base's
        generation: ``shard_payloads`` are the pool's journal entries
        (:meth:`~repro.serve.pool.ShardedMonitorPool.journal_shards`:
        per shard ``last_day_seen`` plus ``customers``,
        ``item_offsets`` and ``items`` arrays), stored as one column
        each, shard after shard, and no score table; returns the
        journal's path.

        Every file is an :func:`~repro.runtime.snapshot.encode_snapshot`
        container.  Transient :class:`OSError` is retried with backoff
        (see :meth:`_with_io_retry`); a re-attempt rewrites the whole
        state, which is safe because nothing references it yet.

        Raises
        ------
        SnapshotError
            If a payload cannot be encoded (a column holding non-numbers).
        """
        if base_index is None:
            if scores is None:
                raise ConfigError("a base needs its score table")
            blobs = [encode_snapshot(payload) for payload in shard_payloads]
            scores_blob = encode_snapshot(scores)

            def write() -> Path:
                directory = self.state_dir(commit_index)
                shutil.rmtree(directory, ignore_errors=True)
                for shard, blob in enumerate(blobs):
                    atomic_write_bytes(self.shard_path(commit_index, shard), blob)
                atomic_write_bytes(directory / SCORES_NAME, scores_blob)
                return directory

        else:
            blob = encode_snapshot(_journal_payload(commit_index, shard_payloads))
            path = self.journal_path(base_index, commit_index)

            def write() -> Path:
                return atomic_write_bytes(path, blob)

        return self._with_io_retry("write_state", commit_index, write)

    def commit(self, cursor: ServeCursor) -> Path:
        """Atomically advance the cursor, then prune every generation
        but the cursor's.

        The cursor replace is the commit point; it rides the same
        bounded I/O retry as the state write (re-attempting an atomic
        replace is idempotent)."""

        def write() -> Path:
            return atomic_write_json(self.cursor_path, cursor.to_payload())

        path = self._with_io_retry("commit", cursor.commit_index, write)
        self._prune(keep=cursor.base_index)
        return path

    def _prune(self, keep: int) -> None:
        kept = self.state_dir(keep)
        for candidate in sorted(self.directory.glob("state-*")):
            if candidate.is_dir() and candidate != kept:
                shutil.rmtree(candidate, ignore_errors=True)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def read_cursor(self) -> ServeCursor | None:
        """The committed cursor, unchecked against any run; ``None``
        when none was ever committed.

        Raises
        ------
        CursorInvalid
            If the cursor file is unreadable, torn, or fails
            :meth:`ServeCursor.from_payload`.
        """
        if not self.cursor_path.exists():
            return None
        try:
            text = self.cursor_path.read_text()
        except OSError as exc:
            raise CursorInvalid(
                f"{self.cursor_path}: cannot read cursor: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CursorInvalid(
                f"{self.cursor_path}: torn or corrupt cursor (invalid JSON)"
            ) from exc
        return ServeCursor.from_payload(payload)

    def load(
        self,
        *,
        stream_fingerprint: str,
        serve_fingerprint: str,
        n_shards: int,
    ) -> LoadedCheckpoint | None:
        """Read the committed checkpoint back for a resume: decode the
        cursor's base, then fold in its journals in commit order.

        Returns ``None`` when no cursor exists (a fresh start, not an
        error).

        Raises
        ------
        CursorInvalid
            If the cursor or its referenced state cannot be trusted:
            torn, altered or missing files, a journal missing from the
            generation or naming another commit, schema or version
            drift, or a stream/config/shard mismatch with the run being
            resumed.
        """
        cursor = self.read_cursor()
        if cursor is None:
            return None
        if cursor.stream_fingerprint != stream_fingerprint:
            raise CursorInvalid(
                f"cursor was recorded over stream "
                f"{cursor.stream_fingerprint}, resuming over "
                f"{stream_fingerprint}"
            )
        if cursor.serve_fingerprint != serve_fingerprint:
            raise CursorInvalid(
                f"cursor was recorded under serving config "
                f"{cursor.serve_fingerprint}, resuming under "
                f"{serve_fingerprint}"
            )
        if cursor.n_shards != n_shards:
            raise CursorInvalid(
                f"cursor has {cursor.n_shards} shard(s), resuming with "
                f"{n_shards}"
            )
        shard_payloads: list[dict] = []
        for shard in range(n_shards):
            shard_payloads.append(
                self._read_state(self.shard_path(cursor.base_index, shard))
            )
        scores = self._read_state(self.state_dir(cursor.base_index) / SCORES_NAME)
        self._fold_journals(cursor, shard_payloads)
        after = cursor.commit_index + 1
        return LoadedCheckpoint(
            cursor=cursor,
            shard_payloads=shard_payloads,
            scores=scores,
            orphaned_state=self.state_dir(after).exists()
            or self.journal_path(cursor.base_index, after).exists(),
        )

    def _fold_journals(
        self, cursor: ServeCursor, shard_payloads: list[dict]
    ) -> None:
        """Fold journals ``base_index + 1 … commit_index`` into the
        base's shard payloads: each shard's slices of every journal's
        columns, and its last clock, fold into its open-window columns
        in one :func:`~repro.runtime.snapshot.fold_unions` pass."""
        n_shards = len(shard_payloads)
        # Per shard: every journal's customers, union sizes and items.
        unions: list[tuple[list, list, list]] = [([], [], []) for _ in range(n_shards)]
        clocks: list[int] = []
        for commit_index in range(
            cursor.base_index + 1, cursor.commit_index + 1
        ):
            path = self.journal_path(cursor.base_index, commit_index)
            journal = self._read_state(path)
            if journal.get("commit_index") != commit_index:
                raise CursorInvalid(
                    f"{path}: journal names commit "
                    f"{journal.get('commit_index')!r}, expected {commit_index}"
                )
            try:
                clocks, columns = _journal_columns(journal, n_shards)
            except (KeyError, TypeError, ValueError, SnapshotError) as exc:
                raise CursorInvalid(
                    f"{path}: malformed journal: {exc!r}"
                ) from exc
            shards = columns["shard_offsets"].tolist()
            offsets = columns["item_offsets"]
            for (ids, sizes, items), lo, hi in zip(unions, shards, shards[1:]):
                ids.append(columns["customers"][lo:hi])
                sizes.append(np.diff(offsets[lo : hi + 1]))
                items.append(columns["items"][offsets[lo] : offsets[hi]])
        directory = self.state_dir(cursor.base_index)
        try:
            for payload, (ids, sizes, items), clock in zip(
                shard_payloads, unions, clocks
            ):
                fold_unions(
                    payload,
                    np.concatenate(ids),
                    np.concatenate(sizes),
                    np.concatenate(items),
                    clock,
                )
        except (KeyError, TypeError, ValueError, IndexError, SnapshotError) as exc:
            raise CursorInvalid(
                f"{directory}: base does not take its journals: {exc!r}"
            ) from exc

    @staticmethod
    def _read_state(path: Path) -> dict:
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CursorInvalid(
                f"{path}: committed state file is missing or unreadable: "
                f"{exc}"
            ) from exc
        try:
            return decode_snapshot(data)
        except SnapshotError as exc:
            raise CursorInvalid(
                f"{path}: committed state file is torn or altered: {exc}"
            ) from exc


#: A journal's columns: each shard's customers (ascending within the
#: shard, the shards back to back, sliced by ``shard_offsets``) and each
#: customer's item union (sliced by ``item_offsets``).
_JOURNAL_COLUMNS = {
    "shard_offsets": np.int64,
    "customers": np.int64,
    "item_offsets": np.int64,
    "items": np.int64,
}


def _journal_payload(commit_index: int, entries: list[dict]) -> dict:
    """One commit's journal entries as a container payload: the commit
    and the shard clocks in the header, the unions as columns."""
    customers = [np.asarray(entry["customers"], np.int64) for entry in entries]
    sizes = np.concatenate([np.diff(entry["item_offsets"]) for entry in entries])
    return {
        "commit_index": commit_index,
        "clocks": [int(entry["last_day_seen"]) for entry in entries],
        "shard_offsets": _offsets(list(map(len, customers))),
        "customers": np.concatenate(customers),
        "item_offsets": _offsets(sizes),
        "items": np.concatenate(
            [np.asarray(entry["items"], np.int64) for entry in entries]
        ),
    }


def _offsets(sizes: list[int] | np.ndarray) -> np.ndarray:
    """Offsets slicing consecutive ranges of the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _journal_columns(
    journal: dict, n_shards: int
) -> tuple[list[int], dict[str, np.ndarray]]:
    """A decoded journal's shard clocks and int64 columns, checked: one
    clock per shard, offsets that span their columns, and customers
    strictly ascending within each shard.

    Raises
    ------
    ValueError, TypeError, KeyError, SnapshotError
        Naming what is malformed.
    """
    clocks = [operator.index(clock) for clock in journal["clocks"]]
    if len(clocks) != n_shards:
        raise ValueError(f"{len(clocks)} shard clock(s) for {n_shards} shard(s)")
    columns = payload_columns(journal, _JOURNAL_COLUMNS)
    check_span(columns, "shard_offsets", ("customers",), n_shards)
    check_span(columns, "item_offsets", ("items",), len(columns["customers"]))
    shards = np.repeat(np.arange(n_shards), np.diff(columns["shard_offsets"]))
    keys = pair_keys(shards, columns["customers"])
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("customers do not ascend within their shard")
    return clocks, columns
