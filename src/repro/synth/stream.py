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
import operator
import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.atomicio import AtomicBinaryWriter
from repro.data.basket import Basket, DayBatch, iter_day_batches
from repro.data.calendar import StudyCalendar
from repro.data.slabs import SlabChunk
from repro.errors import ConfigError, DataError, SchemaError

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


def replay_stream(path: str | Path, *, start: int = 0) -> Iterator[DayBatch]:
    """Replay a recorded stream as day batches, in recorded order.

    ``start`` is the byte offset of the day line to begin at — the
    :attr:`~repro.data.basket.DayBatch.end` of the last batch consumed,
    so a resume seeks straight past what it has served (the serve
    cursor's ``stream_offset``) — and ``0`` means the first day line.
    Every batch carries its own ``end``.  Validation failures raise
    :class:`~repro.errors.SchemaError` naming the offending line; day
    regressions raise it too (a recorded fixture is day-ordered by
    construction, so regression means the file was edited or torn).

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
        for line in handle:
            line_start, position = position, position + len(line)
            if not line.strip():
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
            last_day = batch.day
            yield batch


def check_replay_start(path: str | Path, start: int, last_day: int) -> None:
    """Check that a resume whose state last saw day ``last_day`` can
    continue with :func:`replay_stream` at byte ``start``.

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
        day = _day_ending_at(handle, _day_line_start(path, handle, start))
    if day != last_day:
        raise ConfigError(
            f"{path}: the day line ending at byte {start} holds day {day}, "
            f"not the resumed state's day {last_day}"
        )


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
    """One day line as a batch ending at byte ``end``; anything
    malformed raises :class:`_Malformed`.

    Ids and items go through :func:`operator.index`, which refuses the
    floats and strings that ``int()`` would silently truncate or parse.
    A valid line holds no JSON ``true``/``false`` (the only strings are
    its two keys), so one scan of the raw line refuses every boolean
    without a per-value type check; ``NaN`` and ``Infinity`` amounts
    fail the range check every amount takes.
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
    baskets = []
    for record in payload["baskets"]:
        try:
            customer_id, items, monetary = record
            if not 0 <= monetary < math.inf:
                raise ValueError(
                    f"amount must be a finite number >= 0, got {monetary!r}"
                )
            baskets.append(
                Basket(
                    operator.index(customer_id),
                    day,
                    frozenset(map(operator.index, items)),
                    float(monetary),
                )
            )
        except (TypeError, ValueError, OverflowError, DataError) as exc:
            raise _Malformed(f"malformed basket record {record!r}: {exc}") from exc
    return DayBatch(day=day, baskets=tuple(baskets), end=end)


def stream_fingerprint(path: str | Path) -> str:
    """Short content digest of a recorded stream file.

    The serve checkpoint stores this next to its cursor: a cursor is
    only valid against the exact bytes it was recorded over, so a
    re-recorded or edited stream invalidates the cursor (triggering the
    restart-from-head fallback) instead of resuming into the wrong data.
    """
    digest = hashlib.sha1()
    path = Path(path)
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]
