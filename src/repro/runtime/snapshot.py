"""Snapshot/restore for the streaming :class:`~repro.core.streaming.StabilityMonitor`.

A deployed monitor holds months of accumulated per-customer significance
state; a process restart used to lose all of it, silently resetting
every customer's alarm history.  This module captures the complete
monitor state with a **round-trip guarantee**: a restored monitor
produces byte-for-byte identical
:class:`~repro.core.streaming.WindowCloseReport` objects for the rest of
the stream.

A snapshot payload (:func:`snapshot_monitor`) is a ``dict`` of scalars
plus the monitor's own state columns
(:data:`~repro.core.streaming.STATE_COLUMNS`), one row per customer in
ascending id order:

* ``customers``, ``n_windows_observed``, ``last_stability`` (``nan``
  while undefined);
* ``items``, ``presence`` and ``first_seen`` — each customer's items
  with their presence counts ``c`` and first-seen windows, **in
  first-seen order** (the window close sums significance in this order,
  so ordering is part of bit-identical equality); customer ``i`` owns
  rows ``item_offsets[i]:item_offsets[i + 1]``;
* ``current_items`` (sorted, sliced by ``current_offsets``) — the
  open window's item union ``u_k``, the monitor's per-batch unions
  merged into one;
* ``missing_customers`` / ``missing_offsets`` / ``missing_items`` /
  ``missing_significance`` — the last closed window's missing-item
  evidence, so ``explain_alarm`` keeps working across a restart;
* ``alarm_customers`` / ``alarm_windows`` / ``alarm_stability`` — the
  alarm log, one row per alarm raised, ``(window, customer)`` strictly
  ascending.

:func:`restore_monitor` checks the columns with whole-array operations
and hands them to the new monitor as they are, the open window's two
columns as its one open-window union.

The scalars pin the window grid, the scoring configuration (``beta``,
``alpha``, counting scheme, burn-in) and the stream position (current
window, last day seen, finished flag).

:func:`encode_snapshot` / :func:`decode_snapshot` are the one file and
wire form, for monitor snapshots and for any other payload the serve
checkpoint commits.  A file is::

    magic (8 bytes) | header length (<u4) | JSON header | CRC32 (<u4) | arrays

Every array in the payload is a column, and so is a list under one of
the monitor's column names.  The header holds the payload's other keys
and one ``[name, dtype, offset, count]`` entry per column; the arrays
follow back to back, the monitor's in a fixed order, then any others
by name.  An integer column is ``<i2`` when every value fits, else
``<i4`` when every value fits, else ``<i8`` — the encoder decides from
the data and records its choice — and a float column is ``<f8``.  The
CRC32 covers every other byte of the file, so a truncated, torn or
altered file raises :class:`~repro.errors.SnapshotError` instead of
being ingested.

Only the paper configuration (exponential significance) is
serialisable — a custom significance rule has no stable wire format, so
:func:`snapshot_monitor` refuses it loudly.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.atomicio import atomic_write_bytes
from repro.errors import SnapshotError

if TYPE_CHECKING:
    from repro.core.streaming import ItemUnion, StabilityMonitor

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "snapshot_monitor",
    "restore_monitor",
    "fold_unions",
    "payload_columns",
    "check_columns",
    "check_span",
    "encode_snapshot",
    "decode_snapshot",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_SCHEMA = "repro.stability-monitor"
SNAPSHOT_VERSION = 3

_MAGIC = b"REPRSNAP"
#: Magic plus the JSON header's length.
_PREFIX = struct.Struct("<8sI")
_CRC = struct.Struct("<I")
#: A monitor's columns (see :data:`~repro.core.streaming.STATE_COLUMNS`)
#: by element kind, in the order a file stores them.  Under these names
#: a list is a column too; any other array is stored after them, in
#: name order, its kind taken from its dtype.  Every other key rides in
#: the header.
_COLUMNS = {
    "customers": "i",
    "n_windows_observed": "i",
    "last_stability": "f",
    "item_offsets": "i",
    "items": "i",
    "presence": "i",
    "first_seen": "i",
    "current_offsets": "i",
    "current_items": "i",
    "missing_customers": "i",
    "missing_offsets": "i",
    "missing_items": "i",
    "missing_significance": "f",
    "alarm_customers": "i",
    "alarm_windows": "i",
    "alarm_stability": "f",
}
_ITEMSIZE = {"<i2": 2, "<i4": 4, "<i8": 8, "<f8": 8}
#: Integer column widths, narrowest first: a column takes the first
#: that holds every one of its values.
_INT_WIDTHS = ("<i2", "<i4", "<i8")


def snapshot_monitor(monitor: StabilityMonitor) -> dict:
    """The monitor's complete state as a columnar payload (see module
    docstring).  The columns are the monitor's own arrays, shared as
    read-only views.

    Raises
    ------
    SnapshotError
        If the monitor uses a non-exponential significance rule (no
        stable wire format exists for arbitrary callables).
    """
    from repro.core.significance import ExponentialSignificance

    if not isinstance(monitor.significance, ExponentialSignificance):
        raise SnapshotError(
            "only the paper's ExponentialSignificance is snapshot-"
            f"serialisable, got {type(monitor.significance).__name__}"
        )
    return {
        "schema": SNAPSHOT_SCHEMA,
        "version": SNAPSHOT_VERSION,
        "grid": {
            "boundaries": list(monitor.grid.boundaries),
            "months_per_window": monitor.grid.months_per_window,
        },
        "beta": monitor.beta,
        "alpha": monitor.significance.alpha,
        "counting": monitor.counting,
        "first_alarm_window": monitor.first_alarm_window,
        "current_window": monitor._current_window,
        "last_day_seen": monitor._last_day_seen,
        "finished": monitor._finished,
        **monitor._state_columns(),
    }


def _require(payload: Mapping[str, object], field: str, kind: type | tuple[type, ...]) -> Any:
    if field not in payload:
        raise SnapshotError(f"snapshot missing field {field!r}")
    value = payload[field]
    if not isinstance(value, kind):
        raise SnapshotError(
            f"snapshot field {field!r} has type {type(value).__name__}, "
            f"expected {kind}"
        )
    return value


def payload_columns(
    payload: Mapping[str, object], dtypes: Mapping[str, type]
) -> dict[str, np.ndarray]:
    """The columns ``dtypes`` names, read from a payload as 1-d arrays of
    those dtypes (a column may be an array or a list).

    Raises
    ------
    SnapshotError
        If a column is missing, or is not a flat column of numbers
        (of integers, for an integer dtype).
    """
    columns = {}
    for name, dtype in dtypes.items():
        values = _require(payload, name, (list, np.ndarray))
        integral = np.issubdtype(dtype, np.integer)
        try:
            array = np.asarray(values)
        except (OverflowError, TypeError, ValueError):
            array = None
        if (
            array is None
            or array.ndim != 1
            or (array.size and array.dtype.kind not in ("i" if integral else "if"))
        ):
            raise SnapshotError(
                f"snapshot column {name!r} must hold "
                f"{'integers' if integral else 'numbers'}"
            )
        columns[name] = array.astype(dtype, copy=False)
    return columns


def check_columns(
    columns: Mapping[str, np.ndarray],
    ids: str,
    rows: Sequence[str] = (),
    spans: Mapping[str, Sequence[str]] | None = None,
) -> None:
    """Check one table of columns: ``ids`` strictly ascending, each of
    ``rows`` one value per id, and each offsets column of ``spans``
    slicing its (equally long) value columns into one range per id.

    Raises
    ------
    SnapshotError
        Naming the first column that breaks this.
    """
    keys = columns[ids]
    if np.any(keys[1:] <= keys[:-1]):
        raise SnapshotError(f"snapshot column {ids!r} is not strictly ascending")
    n_rows = len(keys)
    if any(len(columns[name]) != n_rows for name in rows):
        raise SnapshotError(
            f"snapshot columns {', '.join(map(repr, (ids, *rows)))} differ in length"
        )
    for offsets_name, fields in (spans or {}).items():
        check_span(columns, offsets_name, fields, n_rows)


def check_span(
    columns: Mapping[str, np.ndarray],
    offsets_name: str,
    fields: Sequence[str],
    n_rows: int,
) -> None:
    """Check that the offsets column ``offsets_name`` slices its equally
    long value columns ``fields`` into ``n_rows`` ranges, in order.

    Raises
    ------
    SnapshotError
        If the value columns differ in length or the offsets do not
        span them.
    """
    offsets = columns[offsets_name]
    length = len(columns[fields[0]])
    if any(len(columns[field]) != length for field in fields):
        raise SnapshotError(
            f"snapshot columns {', '.join(map(repr, fields))} differ in length"
        )
    if (
        len(offsets) != n_rows + 1
        or offsets[0] != 0
        or offsets[-1] != length
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise SnapshotError(
            f"snapshot column {offsets_name!r} does not span "
            f"{fields[0]!r} ({n_rows} rows, {length} values)"
        )


def _first_repeat(offsets: np.ndarray, values: np.ndarray) -> int | None:
    """The first row whose range of ``values`` holds a value twice."""
    from repro.core.streaming import pair_keys

    rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    keys = pair_keys(rows, values)
    ordered = np.sort(keys)
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if not repeated.size:
        return None
    return int(rows[np.flatnonzero(keys == ordered[repeated[0]])[0]])


def _check_alarm_log(columns: Mapping[str, np.ndarray], current_window: int) -> None:
    """Check the alarm log: equally long columns, ``(window, customer)``
    strictly ascending, every window in ``[0, current_window)``."""
    customers, windows = columns["alarm_customers"], columns["alarm_windows"]
    if not len(customers) == len(windows) == len(columns["alarm_stability"]):
        raise SnapshotError(
            "snapshot columns 'alarm_customers', 'alarm_windows', "
            "'alarm_stability' differ in length"
        )
    ascending = (windows[1:] > windows[:-1]) | (
        (windows[1:] == windows[:-1]) & (customers[1:] > customers[:-1])
    )
    if not ascending.all():
        raise SnapshotError(
            "snapshot alarm log's (window, customer) rows are not strictly ascending"
        )
    if len(windows) and (windows[0] < 0 or windows[-1] >= current_window):
        window = int(windows[0] if windows[0] < 0 else windows[-1])
        raise SnapshotError(
            f"snapshot alarm log names window {window}, outside the closed "
            f"windows [0, {current_window})"
        )


#: The open window's columns: each customer's items, ascending.
_OPEN_COLUMNS = {"current_offsets": np.int64, "current_items": np.int64}


def restore_monitor(payload: dict) -> StabilityMonitor:
    """Rebuild a monitor from a :func:`snapshot_monitor` payload: the
    monitor adopts the state columns as they are, and the open window's
    ``current_offsets`` / ``current_items`` as one item union.

    Raises
    ------
    SnapshotError
        On any schema or version mismatch, or a malformed column: a
        missing one, offsets that do not span their column, per-customer
        columns of unequal length, customers out of ascending order, an
        item repeated within one customer, or an alarm log whose columns
        differ in length, whose ``(window, customer)`` rows do not
        strictly ascend or which names a window not yet closed.
    """
    from repro.core.significance import ExponentialSignificance
    from repro.core.streaming import STATE_COLUMNS, StabilityMonitor
    from repro.core.windowing import WindowGrid

    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload must be a JSON object")
    schema = _require(payload, "schema", str)
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot schema {schema!r} is not {SNAPSHOT_SCHEMA!r}"
        )
    version = _require(payload, "version", int)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version drift: found version {version}, "
            f"expected version {SNAPSHOT_VERSION}"
        )
    grid_payload = _require(payload, "grid", dict)
    boundaries = _require(grid_payload, "boundaries", list)
    months = grid_payload.get("months_per_window")
    grid = WindowGrid(
        boundaries=tuple(int(b) for b in boundaries),
        months_per_window=None if months is None else int(months),
    )
    monitor = StabilityMonitor(
        grid,
        beta=_require(payload, "beta", (int, float)),
        significance=ExponentialSignificance(
            _require(payload, "alpha", (int, float))
        ),
        counting=_require(payload, "counting", str),
        first_alarm_window=_require(payload, "first_alarm_window", int),
    )
    monitor._current_window = _require(payload, "current_window", int)
    monitor._last_day_seen = _require(payload, "last_day_seen", int)
    monitor._finished = _require(payload, "finished", bool)

    columns = payload_columns(payload, {**STATE_COLUMNS, **_OPEN_COLUMNS})
    check_columns(
        columns,
        "customers",
        ("n_windows_observed", "last_stability"),
        {
            "item_offsets": ("items", "presence", "first_seen"),
            "current_offsets": ("current_items",),
        },
    )
    check_columns(
        columns,
        "missing_customers",
        spans={"missing_offsets": ("missing_items", "missing_significance")},
    )
    for owners, offsets, values, what in (
        ("customers", "item_offsets", "items", "an item"),
        ("customers", "current_offsets", "current_items", "an item"),
        ("missing_customers", "missing_offsets", "missing_items", "a missing item"),
    ):
        row = _first_repeat(columns[offsets], columns[values])
        if row is not None:
            raise SnapshotError(
                f"snapshot customer {columns[owners][row]} repeats {what}"
            )
    _check_alarm_log(columns, monitor.current_window)
    monitor._columns = {name: columns[name] for name in STATE_COLUMNS}
    monitor._open = [_open_part(columns)]
    return monitor


def _open_part(columns: Mapping[str, np.ndarray]) -> ItemUnion:
    """The open window's columns as one item union over every customer."""
    from repro.core.streaming import ItemUnion

    return ItemUnion(columns["customers"], columns["current_offsets"], columns["current_items"])


def fold_unions(
    payload: dict,
    ids: np.ndarray,
    sizes: np.ndarray,
    items: np.ndarray,
    last_day_seen: int,
) -> None:
    """Fold open-window item unions into a snapshot payload, in place:
    customer ``ids[i]`` bought the next ``sizes[i]`` of ``items``.

    The unions are those of some baskets, and the payload becomes the
    snapshot of the monitor after those baskets, provided they closed
    no window: such baskets only register customers, add to their
    open-window item unions and move the clock to ``last_day_seen``.  So
    only the open window's columns change, plus a fresh row for each
    customer first seen in ``ids`` — also one whose union is empty, as
    a customer's empty first basket registers them.  A customer or an
    item may repeat, or repeat one the payload holds.

    Raises
    ------
    SnapshotError, ValueError
        If the payload's columns are malformed.
    """
    from repro.core.streaming import (
        STATE_COLUMNS,
        customer_rows,
        item_union,
        merge_unions,
        row_offsets,
    )

    per_customer = ("customers", "n_windows_observed", "last_stability", "item_offsets")
    columns = payload_columns(
        payload, {**{name: STATE_COLUMNS[name] for name in per_customer}, **_OPEN_COLUMNS}
    )
    union = merge_unions([_open_part(columns), item_union(ids, sizes, items)])
    rows = customer_rows(columns, union.customers)
    payload.update(
        columns,
        current_offsets=row_offsets(
            np.repeat(rows, np.diff(union.item_offsets)), len(columns["customers"])
        ),
        current_items=union.items,
        last_day_seen=int(last_day_seen),
    )


# ----------------------------------------------------------------------
# The container: file and wire form
# ----------------------------------------------------------------------
def _column_bytes(
    name: str, kind: str, values: list | np.ndarray
) -> tuple[str, bytes]:
    """One column's dtype and little-endian bytes."""
    try:
        array = np.asarray(values)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot column {name!r} is not numeric: {exc}") from exc
    kinds = "if" if kind == "f" else "i"
    if array.ndim != 1 or (array.size and array.dtype.kind not in kinds):
        raise SnapshotError(
            f"snapshot column {name!r} must hold "
            f"{'numbers' if kind == 'f' else '64-bit integers'}, got {array.dtype}"
        )
    if kind == "f":
        dtype = "<f8"
    else:
        low, high = (array.min(), array.max()) if array.size else (0, 0)
        dtype = next(
            width
            for width in _INT_WIDTHS
            if np.iinfo(width).min <= low and high <= np.iinfo(width).max
        )
    return dtype, array.astype(dtype, copy=False).tobytes()


def _column_kinds(payload: Mapping[str, object]) -> dict[str, str]:
    """The payload's columns, in file order, by element kind: a
    monitor's names holding an array or a list, then every other array
    by name (a float array is a float column, any other an integer
    one)."""
    kinds = {
        name: kind
        for name, kind in _COLUMNS.items()
        if isinstance(payload.get(name), (list, np.ndarray))
    }
    arrays = {
        name: values
        for name, values in payload.items()
        if name not in _COLUMNS and isinstance(values, np.ndarray)
    }
    for name in sorted(arrays):
        kinds[name] = "f" if arrays[name].dtype.kind == "f" else "i"
    return kinds


def encode_snapshot(payload: Mapping[str, object]) -> bytes:
    """``payload`` in the checksummed container (see module docstring).

    Every array, and every list under a monitor column's name, is
    stored as a column; every other key goes into the JSON header.  The
    output depends only on the payload's contents, never on its key
    order.

    Raises
    ------
    SnapshotError
        If a column holds anything but numbers, or integers beyond 64
        bits.
    """
    table: list[list[object]] = []
    blobs: list[bytes] = []
    offset = 0
    for name, kind in _column_kinds(payload).items():
        values = payload[name]
        dtype, blob = _column_bytes(name, kind, values)
        table.append([name, dtype, offset, len(values)])
        blobs.append(blob)
        offset += len(blob)
    columns = {entry[0] for entry in table}
    fields = {key: value for key, value in payload.items() if key not in columns}
    header = json.dumps(
        {"columns": table, "fields": fields},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    head = _PREFIX.pack(_MAGIC, len(header)) + header
    crc = zlib.crc32(head)
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    return b"".join([head, _CRC.pack(crc), *blobs])


def _foreign(data: bytes) -> str:
    """Why ``data`` is not a container: a pre-container JSON snapshot
    names its version, anything else is corrupt."""
    try:
        version = json.loads(data).get("version")
    except (ValueError, AttributeError):
        return "corrupt or truncated snapshot (no container magic)"
    return (
        f"snapshot version drift: found version {version!r}, "
        f"expected version {SNAPSHOT_VERSION}"
    )


def decode_snapshot(data: bytes) -> dict:
    """The payload :func:`encode_snapshot` wrote: header fields first,
    then the columns as read-only arrays over ``data`` (``int16``,
    ``int32`` or ``int64`` as stored, ``float64``).

    Raises
    ------
    SnapshotError
        If ``data`` is truncated, torn or altered (the checksum or the
        column table does not match), or not a container at all.
    """
    if not data.startswith(_MAGIC):
        raise SnapshotError(_foreign(data))
    view = memoryview(data)
    if len(data) < _PREFIX.size + _CRC.size:
        raise SnapshotError(
            f"corrupt or truncated snapshot: {len(data)} bytes is shorter "
            "than the container prefix"
        )
    _, header_length = _PREFIX.unpack_from(data)
    data_start = _PREFIX.size + header_length + _CRC.size
    if len(data) < data_start:
        raise SnapshotError(
            f"corrupt or truncated snapshot: {len(data)} bytes cannot hold "
            f"a {header_length}-byte header"
        )
    (stored,) = _CRC.unpack_from(data, data_start - _CRC.size)
    computed = zlib.crc32(view[data_start:], zlib.crc32(view[: data_start - _CRC.size]))
    if stored != computed:
        raise SnapshotError(
            f"corrupt or truncated snapshot: checksum mismatch (stored "
            f"{stored:08x}, computed {computed:08x})"
        )
    try:
        header = json.loads(view[_PREFIX.size : data_start - _CRC.size].tobytes())
        payload = dict(header["fields"])
        expected = data_start
        for name, dtype, offset, count in header["columns"]:
            start = data_start + offset
            if start != expected or dtype not in _ITEMSIZE:
                raise ValueError(
                    f"column {name!r} is misplaced or of unknown dtype {dtype!r}"
                )
            payload[name] = np.frombuffer(data, dtype, count, start)
            expected = start + count * _ITEMSIZE[dtype]
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
    if expected != len(data):
        raise SnapshotError(
            f"corrupt or truncated snapshot: columns end at byte {expected}, "
            f"the file at {len(data)}"
        )
    return payload


def save_snapshot(monitor: StabilityMonitor, path: str | Path) -> Path:
    """Write a monitor snapshot atomically (temp-then-rename)."""
    return atomic_write_bytes(path, encode_snapshot(snapshot_monitor(monitor)))


def load_snapshot(path: str | Path) -> StabilityMonitor:
    """Restore a monitor from a snapshot file.

    Raises
    ------
    SnapshotError
        If the file is unreadable, corrupt/truncated, from another
        version, or fails schema validation.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    try:
        return restore_monitor(decode_snapshot(data))
    except SnapshotError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
