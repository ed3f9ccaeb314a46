"""Unbounded-scale synthetic purchase streams for the slab data plane.

The scenario generator (:mod:`repro.synth.generator`) builds rich,
per-customer :class:`~repro.data.basket.Basket` objects — faithful but
far too slow and memory-hungry for 100k+ customer benchmarks.  This
module generates the same *shape* of data (habitual assortments, repeat
visits, per-receipt spend) directly as columnar
:class:`~repro.data.slabs.SlabChunk` batches, one bounded chunk of
customers at a time, so a million-customer stream never holds more than
``chunk_customers`` worth of rows in RAM.

Determinism: a single :class:`numpy.random.Generator` seeded once drives
the whole stream, so identical parameters produce identical chunks —
the slab-vs-in-RAM differential benchmarks depend on replaying the same
stream twice.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.atomicio import AtomicBinaryWriter
from repro.data.basket import Basket, DayBatch, iter_day_batches
from repro.data.calendar import StudyCalendar
from repro.data.slabs import SlabChunk
from repro.errors import ConfigError, SchemaError

__all__ = [
    "synthetic_slab_stream",
    "RECORDED_STREAM_SCHEMA",
    "RECORDED_STREAM_VERSION",
    "record_stream",
    "read_stream_header",
    "stream_calendar",
    "replay_stream",
    "check_replay_start",
    "stream_fingerprint",
    "digest_fingerprint",
]


def synthetic_slab_stream(
    n_customers: int,
    n_days: int,
    *,
    seed: int = 13,
    vocab_size: int = 1000,
    items_per_customer: int = 8,
    baskets_per_customer: int = 30,
    items_per_basket: int = 3,
    chunk_customers: int = 2048,
) -> Iterator[SlabChunk]:
    """Yield a deterministic purchase stream as bounded slab chunks.

    Each customer holds a fixed assortment of ``items_per_customer``
    products drawn from a ``vocab_size`` catalogue and makes
    ``baskets_per_customer`` visits on uniform random days in
    ``[0, n_days)``, each visit buying ``items_per_basket`` of their
    assortment (with repetition — the presence encoding deduplicates).
    Peak working set is one chunk: ``O(chunk_customers *
    baskets_per_customer * items_per_basket)`` rows.
    """
    if n_customers < 0:
        raise ConfigError(f"n_customers must be >= 0, got {n_customers}")
    if n_days < 1:
        raise ConfigError(f"n_days must be >= 1, got {n_days}")
    if items_per_customer > vocab_size:
        raise ConfigError(
            f"items_per_customer={items_per_customer} exceeds "
            f"vocab_size={vocab_size}"
        )
    if chunk_customers < 1:
        raise ConfigError(f"chunk_customers must be >= 1, got {chunk_customers}")
    rng = np.random.default_rng(seed)
    for first in range(0, n_customers, chunk_customers):
        size = min(chunk_customers, n_customers - first)
        # Customer ids are 1-based so id 0 never collides with "missing".
        ids = np.arange(first + 1, first + size + 1, dtype=np.int64)
        # Per-customer assortment: first items_per_customer slots of a
        # random permutation of the catalogue (vectorised, no replacement).
        keys = rng.random((size, vocab_size))
        assortment = np.argpartition(keys, items_per_customer - 1, axis=1)[
            :, :items_per_customer
        ].astype(np.int64)

        baskets = baskets_per_customer
        days = rng.integers(0, n_days, size=(size, baskets), dtype=np.int64)
        monetary = np.round(rng.uniform(5.0, 50.0, size=(size, baskets)), 2)
        picks = rng.integers(
            0, items_per_customer, size=(size, baskets, items_per_basket)
        )
        items = np.take_along_axis(
            assortment[:, None, :].repeat(baskets, axis=1), picks, axis=2
        )
        yield SlabChunk(
            basket_customer=np.repeat(ids, baskets),
            basket_day=days.reshape(-1),
            basket_monetary=monetary.reshape(-1),
            item_customer=np.repeat(ids, baskets * items_per_basket),
            item_day=np.repeat(days.reshape(-1), items_per_basket),
            item_id=items.reshape(-1),
        )


# ----------------------------------------------------------------------
# Recorded streams: the record-workload-then-replay harness.
#
# A *recorded stream* is the serving layer's deterministic test fixture:
# a JSONL file whose first line is a self-describing header and whose
# every subsequent line is one day's baskets.  Recording a synthetic
# scenario once and replaying the file through `repro.serve` makes every
# serving test exactly reproducible — same bytes in, same scores out.
# The serve checkpoint cursor pins itself to the file's content
# fingerprint and resumes at a byte offset where a day line begins.
# ----------------------------------------------------------------------

RECORDED_STREAM_SCHEMA = "repro.recorded-stream"
RECORDED_STREAM_VERSION = 1


def record_stream(
    baskets: Iterable[Basket],
    path: str | Path,
    *,
    calendar: StudyCalendar,
    meta: dict[str, object] | None = None,
) -> Path:
    """Record a day-ordered basket stream as a JSONL fixture, atomically.

    The file is written through
    :class:`~repro.atomicio.AtomicBinaryWriter` (write-temp-then-rename),
    so a killed recording never leaves a truncated fixture under the
    final name.  Line 1 is the header (schema, version, the calendar the
    day offsets refer to, optional metadata); every further line is one
    :class:`~repro.data.basket.DayBatch` as
    ``{"day": d, "baskets": [[customer_id, [items...], monetary], ...]}``.
    Monetary values serialise at ``repr`` precision, so a record/replay
    round trip is bit-exact.

    Raises
    ------
    DataError
        If the basket stream is not day-ordered (via
        :func:`~repro.data.basket.iter_day_batches`).
    """
    path = Path(path)
    header = {
        "schema": RECORDED_STREAM_SCHEMA,
        "version": RECORDED_STREAM_VERSION,
        "calendar": {
            "start": calendar.start.isoformat(),
            "n_months": calendar.n_months,
        },
        "meta": dict(meta) if meta else {},
    }
    with AtomicBinaryWriter(path) as writer:
        writer.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for batch in iter_day_batches(baskets):
            line = {
                "day": batch.day,
                "baskets": [
                    [
                        basket.customer_id,
                        sorted(basket.items),
                        basket.monetary,
                    ]
                    for basket in batch.baskets
                ],
            }
            writer.write((json.dumps(line, sort_keys=True) + "\n").encode())
    return path


def _header_error(path: Path, reason: str) -> SchemaError:
    return SchemaError(f"{path}: not a recorded stream ({reason})")


def read_stream_header(path: str | Path) -> dict[str, object]:
    """Read and validate the header line of a recorded stream.

    Raises
    ------
    SchemaError
        If the file is missing, empty, unparseable, from a foreign
        schema, or from an incompatible version (the message names the
        found and expected versions).
    """
    path = Path(path)
    try:
        with path.open() as handle:
            first = handle.readline()
    except OSError as exc:
        raise _header_error(path, f"cannot read: {exc}") from exc
    if not first:
        raise _header_error(path, "empty file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise _header_error(path, "corrupt header line") from exc
    if not isinstance(header, dict):
        raise _header_error(path, "header is not an object")
    if header.get("schema") != RECORDED_STREAM_SCHEMA:
        raise _header_error(
            path, f"schema {header.get('schema')!r} is not {RECORDED_STREAM_SCHEMA!r}"
        )
    if header.get("version") != RECORDED_STREAM_VERSION:
        raise _header_error(
            path,
            f"found version {header.get('version')!r}, expected version "
            f"{RECORDED_STREAM_VERSION}",
        )
    cal = header.get("calendar")
    if not isinstance(cal, dict) or "start" not in cal or "n_months" not in cal:
        raise _header_error(path, "missing or malformed calendar")
    return header


def stream_calendar(header: dict[str, object]) -> StudyCalendar:
    """The :class:`~repro.data.calendar.StudyCalendar` a header declares."""
    cal = header["calendar"]
    assert isinstance(cal, dict)
    return StudyCalendar(
        start=_dt.date.fromisoformat(str(cal["start"])),
        n_months=int(str(cal["n_months"])),
    )


def replay_stream(
    path: str | Path, *, start: int = 0, digest: hashlib._Hash | None = None
) -> Iterator[DayBatch]:
    """Replay a recorded stream as day batches, in recorded order.

    ``start`` is the byte offset of the day line to begin at — the
    :attr:`~repro.data.basket.DayBatch.end` of the last batch consumed,
    so a resume seeks straight past what it has served (the serve
    cursor's ``stream_offset``) — and ``0`` means the first day line.
    Every batch carries its own ``end``.  Validation failures raise
    :class:`~repro.errors.SchemaError` naming the offending line; day
    regressions raise it too (a recorded fixture is day-ordered by
    construction, so regression means the file was edited or torn).

    ``digest``, a SHA-1 object holding bytes ``[0, start)``, is fed
    every byte the replay consumes (the header line too when ``start``
    is ``0``), so whenever a batch is yielded it holds exactly
    ``[0, batch.end)``: blank lines are fed with the next day line, and
    so never past the last batch.  :func:`stream_fingerprint` starts
    such a digest; :func:`digest_fingerprint` reads it.

    Raises
    ------
    ConfigError
        If ``start`` is not ``0`` and not the start of a line after the
        header (see :func:`check_replay_start`).
    """
    path = Path(path)
    read_stream_header(path)  # validate before yielding anything
    last_day = -1
    with path.open("rb") as handle:
        position = _day_line_start(path, handle, start)
        if digest is not None and not start:
            handle.seek(0)
            digest.update(handle.read(position))
        #: Blank lines consumed since the last batch, not yet hashed.
        blank = b""
        for line in handle:
            line_start, position = position, position + len(line)
            if not line.strip():
                blank += line
                continue
            try:
                batch = _decode_day_line(line, position)
                if batch.day <= last_day:
                    raise _Malformed(
                        f"day {batch.day} does not advance past day {last_day}"
                    )
            except _Malformed as exc:
                raise SchemaError(
                    f"{path}:{_line_number(path, line_start)}: {exc}"
                ) from exc.__cause__
            if digest is not None:
                digest.update(blank + line if blank else line)
            blank = b""
            last_day = batch.day
            yield batch


def check_replay_start(path: str | Path, start: int, last_day: int) -> int:
    """Check that a resume whose state last saw day ``last_day`` can
    continue with :func:`replay_stream` at byte ``start``, and return
    the offset of the day line it continues at (the header's end when
    ``start`` is ``0``): the end of the stream prefix that state
    consumed.

    ``start`` must be ``0``, or an offset between the header's end and
    the file's end that directly follows a newline; and the day line
    that ends at ``start`` must hold ``last_day`` (``-1`` when no day
    line precedes ``start``), so an offset that skips or repeats days is
    refused.  Only that one line is read.

    Raises
    ------
    ConfigError
        If it cannot (the message names the offset).
    SchemaError
        If the file is not a recorded stream.
    """
    path = Path(path)
    read_stream_header(path)
    with path.open("rb") as handle:
        begin = _day_line_start(path, handle, start)
        day = _day_ending_at(handle, begin)
    if day != last_day:
        raise ConfigError(
            f"{path}: the day line ending at byte {start} holds day {day}, "
            f"not the resumed state's day {last_day}"
        )
    return begin


def _day_ending_at(handle: BinaryIO, end: int) -> int:
    """The day of the line ending at byte ``end`` (a day line start past
    the header), or -1 when that line is the header."""
    handle.seek(0)
    header_end = len(handle.readline())
    if end <= header_end:
        return -1
    begin = header_end
    probe = end - 1  # the newline that ends the line
    while probe > header_end:
        lo = max(header_end, probe - 4096)
        handle.seek(lo)
        newline = handle.read(probe - lo).rfind(b"\n")
        if newline >= 0:
            begin = lo + newline + 1
            break
        probe = lo
    handle.seek(begin)
    line = handle.read(end - begin)
    try:
        day = json.loads(line)["day"]
    except (ValueError, TypeError, KeyError):
        day = None
    if type(day) is not int:
        raise ConfigError(f"the line ending at byte {end} is not a day line")
    return day


def _day_line_start(path: Path, handle: BinaryIO, start: int) -> int:
    """Seek ``handle`` (at the file's start) to the day line at byte
    ``start``, ``0`` meaning the first, and return that offset."""
    header_end = len(handle.readline())
    if start == 0:
        return header_end
    size = os.fstat(handle.fileno()).st_size
    if header_end <= start <= size:
        handle.seek(start - 1)
        if handle.read(1) == b"\n":
            return start
    raise ConfigError(
        f"{path}: replay start {start!r} is not the start of a day line "
        f"(0, or an offset in [{header_end}, {size}] after a newline)"
    )


def _line_number(path: Path, offset: int) -> int:
    """The 1-based number of the line starting at byte ``offset``.

    Counted only when an error names the line: a resumed replay seeks
    past the lines before it without reading them.
    """
    with path.open("rb") as handle:
        return handle.read(offset).count(b"\n") + 1


class _Malformed(Exception):
    """What is wrong with a day line, before its line number is counted."""


def _decode_day_line(line: bytes, end: int) -> DayBatch:
    """One day line as a batch of columns ending at byte ``end``;
    anything malformed raises :class:`_Malformed`.

    The checks are whole-column ones: ids and items must read as an
    int64 column (numpy infers ``float64``, ``uint64``, a string or an
    object column for floats, strings, nesting or integers past int64),
    and every amount as a number with ``0 <= amount < inf`` (which
    ``NaN`` fails).  A valid line holds no JSON ``true``/``false`` (the
    only strings are its two keys), so one scan of the raw line refuses
    every boolean, which numpy would read as 0 or 1.
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise _Malformed("corrupt or truncated day batch") from exc
    if b"true" in line or b"false" in line:
        raise _Malformed("a JSON boolean is no day, id, item or amount")
    if not isinstance(payload, dict) or not isinstance(
        payload.get("baskets"), list
    ):
        raise _Malformed("malformed day batch")
    day = payload.get("day")
    if type(day) is not int or day < 0:
        raise _Malformed(f"day must be an integer >= 0, got {day!r}")
    records = payload["baskets"]
    try:
        ids, item_lists, amounts = zip(*records, strict=True) if records else ((), (), ())
        offsets = np.fromiter(
            accumulate(map(len, item_lists), initial=0), np.int64, len(ids) + 1
        )
    except (TypeError, ValueError) as exc:
        raise _Malformed(
            f"a basket record is not [customer id, [items...], amount]: {exc}"
        ) from exc
    return DayBatch(
        day=day,
        customers=_int64_column(ids, "customer id"),
        item_offsets=offsets,
        items=_int64_column(list(chain.from_iterable(item_lists)), "item"),
        amounts=_amount_column(amounts),
        end=end,
    )


def _int64_column(values: Sequence[object], what: str) -> np.ndarray:
    """``values`` as an int64 column; :class:`_Malformed` naming the
    first value that is not an integer in int64 otherwise."""
    if not values:
        return np.zeros(0, np.int64)
    try:
        column = np.array(values)
    except (ValueError, OverflowError):
        column = None
    if column is None or column.dtype != np.int64 or column.ndim != 1:
        bad = next(
            (v for v in values if type(v) is not int or not -(2**63) <= v < 2**63),
            None,
        )
        raise _Malformed(f"{what} {bad!r} is not an integer in int64")
    return column


def _amount_column(values: Sequence[object]) -> np.ndarray:
    """``values`` as a float64 column of amounts ``0 <= amount < inf``."""
    if not values:
        return np.zeros(0, np.float64)
    try:
        column = np.array(values)
    except (ValueError, OverflowError):
        column = None
    if column is None or column.dtype.kind not in "iuf" or column.ndim != 1:
        raise _Malformed("amounts must be numbers, one per basket")
    column = column.astype(np.float64)
    bad = ~((column >= 0.0) & (column < math.inf))
    if bad.any():
        raise _Malformed(
            f"amount must be a finite number >= 0, got {column[bad][0].item()!r}"
        )
    return column


def stream_fingerprint(
    path: str | Path, end: int | None = None, *, digest: hashlib._Hash | None = None
) -> str:
    """Short content digest of bytes ``[0, end)`` of a recorded stream
    file (every byte when ``end`` is ``None``; the whole file when it is
    shorter).

    The serve checkpoint stores this next to its cursor, over the
    prefix the cursor's state consumed: a cursor is only valid against
    the exact bytes it was recorded over, so an edited, truncated or
    re-recorded prefix invalidates the cursor (triggering the
    restart-from-head fallback) instead of resuming into the wrong data,
    while days appended past it are served on.  The bytes are fed to
    ``digest`` (a fresh SHA-1 when ``None``), so a caller can hand that
    state on to :func:`replay_stream`; the file is read through one
    buffer of at most 1 MiB.
    """
    digest = hashlib.sha1() if digest is None else digest
    with Path(path).open("rb") as handle:
        left = os.fstat(handle.fileno()).st_size if end is None else end
        buffer = bytearray(min(1 << 20, max(left, 0)))
        view = memoryview(buffer)
        while left > 0 and (size := handle.readinto(view[: min(len(buffer), left)])):
            digest.update(view[:size])
            left -= size
    return digest_fingerprint(digest)


def digest_fingerprint(digest: hashlib._Hash) -> str:
    """The short fingerprint :func:`stream_fingerprint` returns, of the
    bytes ``digest`` holds so far (it can take more after)."""
    return digest.hexdigest()[:16]
