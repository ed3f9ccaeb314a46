"""Durable serve checkpoints: state generations sealed by an atomic cursor.

The serving loop's crash contract — *max rework after a crash is one
batch* — is carried entirely by the write ordering here:

1. :meth:`ServeCheckpoint.write_state` writes the batch's state, each
   file atomically, where the current cursor does not reference it yet;
2. :meth:`ServeCheckpoint.commit` atomically writes a cursor
   referencing that state under a fresh name, ``cursor-<commit>.json``
   — the single commit point — then removes the previous commit's
   cursor, and prunes superseded generations when the commit moved the
   base.

No commit replaces a file: renaming onto an existing name cost tens of
times a rename onto a fresh one (DESIGN.md §10.2), so every state file
and every cursor lands under a name nothing holds yet.  The
newest cursor wins (:meth:`ServeCheckpoint.read_cursor`): a crash
between a cursor's rename and its predecessor's removal leaves two, and
the older one is dead.  A run's first commit removes every other
cursor — whatever its index, and any cursor temp file — before it
prunes, so a stale cursor an abandoned run left behind (say a torn
``cursor-000006.json`` after a fallback to the stream head) cannot win
a later load, and no surviving cursor names a pruned generation.

State is kept as one *generation* per ``state-<base>/`` directory: a
**base** (one snapshot file ``shard-<i>.snap`` per shard and nothing
else, the full state as of commit ``base``, alarm log included) and the
**journals** ``journal-<k>.snap`` of the commits after it.  The model's
state only moves at window boundaries — between two closes a batch adds
nothing but each customer's open-window items — so a commit whose batch
closed no window writes only its journal: per shard, the batch's
per-customer item unions and the shard clock.  A batch that closes a
window, the first commit in a directory and the finish seal write a
new base instead.  :meth:`ServeCheckpoint.load` decodes the cursor's
base and reads its journals, in commit order: a journal only adds to
the open window, so a resume restores each shard from its base and
appends the shard's journal unions to the open window (see
:func:`~repro.runtime.snapshot.restore_monitor`), and moves the shard
clock to the last journal's.  Every state file is one checksummed
:func:`~repro.runtime.snapshot.encode_snapshot` container whose arrays
are columns: a shard snapshot's, and a journal's unions (its header
holds only its commit and the shard clocks).

A crash before the commit leaves the previous cursor (and its intact
generation) authoritative: the resumed run replays exactly the one
uncommitted batch.  The orphaned newer state — ``state-<commit+1>/`` or
``journal-<commit+1>.snap`` — doubles as the rework marker:
:meth:`ServeCheckpoint.load` reports it so the loop can count the
rework in telemetry.

A cursor is only trusted when it matches the run being resumed: the
digest of the stream prefix its state consumed (bytes
``[0, stream_offset)``, cursor v8; v7 hashed the whole file), the
serving-config fingerprint and the shard count are all pinned inside
it.  :meth:`ServeCheckpoint.load` checks the config and the shard
count; the loop hashes the prefix once the state is restored and the
offset checked, and checks the stream pin itself
(:meth:`ServeCursor.check_stream`).  Any
mismatch — or a torn/corrupt cursor, one whose file name is not its
commit's (a leftover version-6 ``cursor.json`` among them), a torn,
missing, altered (checksum mismatch) or misnumbered state file, or a
malformed journal — raises
:class:`CursorInvalid`, and
the loop falls back to restarting from the stream head (Snippet-2
semantics: the fresh shards re-derive every score and alarm, warning
logged) rather than resuming into the wrong data.
"""

from __future__ import annotations

import json
import logging
import operator
import re
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write_bytes, atomic_write_json
from repro.core.streaming import ItemUnion, pair_keys
from repro.errors import ConfigError, ServeError, SnapshotError
from repro.obs import get_metrics
from repro.obs import metrics as obs_metrics
from repro.runtime.snapshot import (
    check_span,
    decode_snapshot,
    encode_snapshot,
    payload_columns,
)

__all__ = [
    "CURSOR_SCHEMA",
    "CURSOR_VERSION",
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

CURSOR_SCHEMA = "repro.serve-cursor"
CURSOR_VERSION = 8

#: A cursor file: ``cursor-<commit>.json``, or the ``cursor.json`` that
#: cursor versions up to 6 replaced in place (older than any numbered
#: one, and never its commit's name).
_CURSOR_FILE = re.compile(r"cursor(?:-(\d+))?\.json")
#: What an interrupted cursor write leaves behind (the temp file of
#: :func:`~repro.atomicio.atomic_write_bytes`).
_CURSOR_TEMP = re.compile(r"\.cursor(?:-\d+)?\.json\.tmp-\d+")

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
    days — a checkpoint batch never splits one).  ``stream_fingerprint``
    is the digest of the stream up to there: the header and every day
    line consumed.  Counters ride inside the cursor so a resume restores
    them atomically with the position.
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

    def check_stream(self, stream_fingerprint: str) -> None:
        """Check that the cursor was recorded over the stream prefix
        whose :func:`~repro.synth.stream.stream_fingerprint` is given:
        bytes ``[0, stream_offset)``, the header and the day lines its
        state consumed.

        Raises
        ------
        CursorInvalid
            Naming both fingerprints, if they differ.
        """
        if self.stream_fingerprint != stream_fingerprint:
            raise CursorInvalid(
                f"cursor was recorded over stream "
                f"{self.stream_fingerprint}, resuming over "
                f"{stream_fingerprint}"
            )


@dataclass(frozen=True)
class LoadedCheckpoint:
    """Everything a resume needs, read back from a valid checkpoint."""

    cursor: ServeCursor
    #: One snapshot payload per shard: the cursor's base as decoded, its
    #: shard clock ``last_day_seen`` moved to the last journal's.
    shard_payloads: list[dict]
    #: Per shard, the item union of each journal ``base_index + 1 …
    #: commit_index``, in commit order: what those commits added to the
    #: open window.  A payload restored with its shard's unions
    #: (:meth:`~repro.serve.pool.ShardedMonitorPool.from_snapshots`) is
    #: the shard's state at the cursor's commit.
    shard_journals: list[list[ItemUnion]]
    #: State newer than the cursor exists (``state-<commit+1>/`` or
    #: ``journal-<commit+1>.snap``): a previous run crashed between its
    #: state write and the cursor commit, so the resumed run will
    #: rework exactly that one batch.
    orphaned_state: bool


class ServeCheckpoint:
    """One serving run's checkpoint directory (see module docstring).

    An instance commits for one run: its first :meth:`commit` sweeps
    whatever cursors and generations earlier runs left behind.

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
        #: The last cursor this instance committed (None: this run has
        #: not committed yet, so its first commit sweeps the directory).
        self._committed: ServeCursor | None = None

    @property
    def cursor_path(self) -> Path | None:
        """The newest cursor file — the highest-numbered
        ``cursor-<commit>.json``, or a leftover ``cursor.json`` when
        there is none — or ``None`` when the directory holds no cursor.
        This lists the directory."""
        ranked = [
            (int(match[1] or -1), path)
            for path in self.directory.glob("cursor*.json")
            if (match := _CURSOR_FILE.fullmatch(path.name))
        ]
        return max(ranked)[1] if ranked else None

    def cursor_file(self, commit_index: int) -> Path:
        """The cursor file commit ``commit_index`` writes."""
        return self.directory / f"cursor-{commit_index:06d}.json"

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
        *,
        base_index: int | None = None,
    ) -> Path:
        """Write one commit's state where the current cursor does not
        reference it yet, so a crash mid-write cannot tear the committed
        state.

        Without ``base_index`` this writes a **base**: ``shard_payloads``
        are per-shard snapshots, written into a fresh
        ``state-<commit_index>/`` (whatever an abandoned run left under
        that name is dropped first); returns the directory.  With
        ``base_index`` it writes a **journal** into that base's
        generation: ``shard_payloads`` are the pool's journal entries
        (:meth:`~repro.serve.pool.ShardedMonitorPool.journal_shards`:
        per shard ``last_day_seen`` plus ``customers``,
        ``item_offsets`` and ``items`` arrays), stored as one column
        each, shard after shard; returns the journal's path.

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
            blobs = [encode_snapshot(payload) for payload in shard_payloads]

            def write() -> Path:
                directory = self.state_dir(commit_index)
                shutil.rmtree(directory, ignore_errors=True)
                for shard, blob in enumerate(blobs):
                    atomic_write_bytes(self.shard_path(commit_index, shard), blob)
                return directory

        else:
            blob = encode_snapshot(_journal_payload(commit_index, shard_payloads))
            path = self.journal_path(base_index, commit_index)

            def write() -> Path:
                return atomic_write_bytes(path, blob)

        return self._with_io_retry("write_state", commit_index, write)

    def commit(self, cursor: ServeCursor) -> Path:
        """Atomically write the cursor under its commit's name, then
        remove the previous commit's cursor.

        The cursor's rename is the commit point; it rides the same
        bounded I/O retry as the state write (re-attempting the write
        is idempotent).  A crash before the removal leaves the previous
        cursor beside the new one, which wins.  Only a commit that
        moved the base, or this instance's first commit, lists the
        directory: it prunes every generation but the cursor's, and the
        first commit removes every other cursor and cursor temp file
        before it prunes."""
        path = self.cursor_file(cursor.commit_index)

        def write() -> Path:
            return atomic_write_json(path, cursor.to_payload())

        self._with_io_retry("commit", cursor.commit_index, write)
        previous, self._committed = self._committed, cursor
        if previous is None:
            self._prune(cursor, cursors=True)
        else:
            if previous.commit_index != cursor.commit_index:
                self.cursor_file(previous.commit_index).unlink(missing_ok=True)
            if previous.base_index != cursor.base_index:
                self._prune(cursor, cursors=False)
        return path

    def _prune(self, cursor: ServeCursor, *, cursors: bool) -> None:
        """Remove every generation but ``cursor``'s; with ``cursors``,
        first every cursor file but ``cursor``'s and every cursor temp
        file, so that no surviving cursor names a pruned generation."""
        entries = sorted(self.directory.iterdir())
        if cursors:
            kept = self.cursor_file(cursor.commit_index)
            for entry in entries:
                if entry != kept and (
                    _CURSOR_FILE.fullmatch(entry.name)
                    or _CURSOR_TEMP.fullmatch(entry.name)
                ):
                    entry.unlink(missing_ok=True)
        kept = self.state_dir(cursor.base_index)
        for entry in entries:
            if entry.name.startswith("state-") and entry != kept and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def read_cursor(self) -> ServeCursor | None:
        """The newest committed cursor (see :attr:`cursor_path`),
        unchecked against any run; ``None`` when none was ever
        committed.

        Raises
        ------
        CursorInvalid
            If the cursor file is unreadable, torn, fails
            :meth:`ServeCursor.from_payload`, or is not named for its
            ``commit_index``.
        """
        path = self.cursor_path
        if path is None:
            return None
        try:
            text = path.read_text()
        except OSError as exc:
            raise CursorInvalid(f"{path}: cannot read cursor: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CursorInvalid(
                f"{path}: torn or corrupt cursor (invalid JSON)"
            ) from exc
        cursor = ServeCursor.from_payload(payload)
        if path.name != self.cursor_file(cursor.commit_index).name:
            raise CursorInvalid(
                f"{path}: cursor names commit {cursor.commit_index}, not "
                "the commit of its file name"
            )
        return cursor

    def load(
        self,
        cursor: ServeCursor,
        *,
        serve_fingerprint: str,
        n_shards: int,
    ) -> LoadedCheckpoint:
        """Read the state of ``cursor`` — the committed cursor
        :meth:`read_cursor` returned — back for a resume: check the
        cursor against the run being resumed, decode its base, then read
        and check its journals in commit order.

        The cursor's stream fingerprint is not checked here: the caller
        hashes the stream prefix ``[0, stream_offset)`` once it has
        checked the offset against the restored state, and compares it
        (:meth:`ServeCursor.check_stream`) before it replays anything.

        Raises
        ------
        CursorInvalid
            If the cursor or its referenced state cannot be trusted:
            torn, altered or missing files, a journal missing from the
            generation or naming another commit, or a config or shard
            mismatch with the run being resumed.
        """
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
        shard_payloads = [
            self._read_state(self.shard_path(cursor.base_index, shard))
            for shard in range(n_shards)
        ]
        shard_journals = self._read_journals(cursor, shard_payloads)
        after = cursor.commit_index + 1
        return LoadedCheckpoint(
            cursor=cursor,
            shard_payloads=shard_payloads,
            shard_journals=shard_journals,
            orphaned_state=self.state_dir(after).exists()
            or self.journal_path(cursor.base_index, after).exists(),
        )

    def _read_journals(
        self, cursor: ServeCursor, shard_payloads: list[dict]
    ) -> list[list[ItemUnion]]:
        """Each shard's slice of journals ``base_index + 1 …
        commit_index`` as an item union, in commit order, each journal
        checked; the base's shard clocks move to the last journal's."""
        journals: list[list[ItemUnion]] = [[] for _ in shard_payloads]
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
                clocks, columns = _journal_columns(journal, len(shard_payloads))
            except (KeyError, TypeError, ValueError, SnapshotError) as exc:
                raise CursorInvalid(
                    f"{path}: malformed journal: {exc!r}"
                ) from exc
            shards = columns["shard_offsets"].tolist()
            offsets = columns["item_offsets"]
            for unions, lo, hi in zip(journals, shards, shards[1:]):
                unions.append(
                    ItemUnion(
                        columns["customers"][lo:hi],
                        offsets[lo : hi + 1] - offsets[lo],
                        columns["items"][offsets[lo] : offsets[hi]],
                    )
                )
        for payload, clock in zip(shard_payloads, clocks):
            payload["last_day_seen"] = clock
        return journals

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
