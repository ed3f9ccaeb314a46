"""Snapshot/restore for the streaming :class:`~repro.core.streaming.StabilityMonitor`.

A deployed monitor holds months of accumulated per-customer significance
state; a process restart used to lose all of it, silently resetting
every customer's alarm history.  This module captures the complete
monitor state with a **round-trip guarantee**: a restored monitor
produces byte-for-byte identical
:class:`~repro.core.streaming.WindowCloseReport` objects for the rest of
the stream.

A snapshot payload (:func:`snapshot_monitor`) is a ``dict`` of scalars
plus flat columns, one row per customer in ascending id order:

* ``customers``, ``n_windows_observed``, ``last_stability`` (``nan``
  while undefined);
* ``items``, ``presence`` and ``first_seen`` — each tracker's items with
  their presence counts ``c`` and first-seen windows, **in first-seen
  order** (the batched window close flattens dicts in insertion order,
  so ordering is part of bit-identical equality); customer ``i`` owns
  rows ``item_offsets[i]:item_offsets[i + 1]``;
* ``current_items`` (sorted, sliced by ``current_offsets``) — the
  open window's item union ``u_k``;
* ``missing_customers`` / ``missing_offsets`` / ``missing_items`` /
  ``missing_significance`` — the last closed window's missing-item
  evidence, so ``explain_alarm`` keeps working across a restart.

The scalars pin the window grid, the scoring configuration (``beta``,
``alpha``, counting scheme, burn-in) and the stream position (current
window, last day seen, finished flag).

:func:`encode_snapshot` / :func:`decode_snapshot` are the one file and
wire form, for monitor snapshots and for any other payload the serve
checkpoint commits.  A file is::

    magic (8 bytes) | header length (<u4) | JSON header | CRC32 (<u4) | arrays

The header holds the payload's other keys and one ``[name, dtype,
offset, count]`` entry per column; the arrays follow back to back.  An
integer column is ``<i4`` when every value fits and ``<i8`` otherwise —
the encoder decides from the data and records its choice — and a float
column is ``<f8``.  The CRC32 covers every other byte of the file, so a
truncated, torn or altered file raises
:class:`~repro.errors.SnapshotError` instead of being ingested.

Only the paper configuration (exponential significance) is
serialisable — a custom significance rule has no stable wire format, so
:func:`snapshot_monitor` refuses it loudly.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.atomicio import atomic_write_bytes
from repro.errors import SnapshotError

if TYPE_CHECKING:
    from repro.core.streaming import StabilityMonitor

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "snapshot_monitor",
    "restore_monitor",
    "fold_unions",
    "encode_snapshot",
    "decode_snapshot",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_SCHEMA = "repro.stability-monitor"
SNAPSHOT_VERSION = 2

_MAGIC = b"REPRSNAP"
#: Magic plus the JSON header's length.
_PREFIX = struct.Struct("<8sI")
_CRC = struct.Struct("<I")
#: The columns the container stores as arrays, by element kind.  Any
#: other key — or one of these names holding anything but a list —
#: rides in the header.
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
}
_ITEMSIZE = {"<i4": 4, "<i8": 8, "<f8": 8}
_I4_MIN, _I4_MAX = -(2**31), 2**31 - 1


def snapshot_monitor(monitor: StabilityMonitor) -> dict:
    """The monitor's complete state as a columnar payload (see module
    docstring).

    Raises
    ------
    SnapshotError
        If the monitor uses a non-exponential significance rule (no
        stable wire format exists for arbitrary callables), or a
        tracker's presence and first-seen dicts disagree on item order.
    """
    from repro.core.significance import ExponentialSignificance

    if not isinstance(monitor.significance, ExponentialSignificance):
        raise SnapshotError(
            "only the paper's ExponentialSignificance is snapshot-"
            f"serialisable, got {type(monitor.significance).__name__}"
        )
    customers = sorted(monitor._states)
    n_windows: list[int] = []
    last_stability: list[float] = []
    item_offsets = [0]
    items: list[int] = []
    presence: list[int] = []
    first_seen: list[int] = []
    current_offsets = [0]
    current_items: list[int] = []
    for customer_id in customers:
        state = monitor._states[customer_id]
        tracker = state.tracker
        keys = list(tracker._presence)
        # The tracker inserts into both dicts together; one shared item
        # column is only sound while that holds.
        if keys != list(tracker._first_seen):
            raise SnapshotError(
                f"customer {customer_id}: presence and first-seen item "
                "orders differ"
            )
        items += keys
        presence += tracker._presence.values()
        first_seen += tracker._first_seen.values()
        item_offsets.append(len(items))
        n_windows.append(tracker.n_windows_observed)
        last_stability.append(float(state.last_stability))
        current_items += sorted(state.current_items)
        current_offsets.append(len(current_items))
    missing_customers = sorted(monitor._last_missing)
    missing_offsets = [0]
    missing_items: list[int] = []
    missing_significance: list[float] = []
    for customer_id in missing_customers:
        missing = monitor._last_missing[customer_id]
        missing_items += missing
        missing_significance += missing.values()
        missing_offsets.append(len(missing_items))
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
        "customers": customers,
        "n_windows_observed": n_windows,
        "last_stability": last_stability,
        "item_offsets": item_offsets,
        "items": items,
        "presence": presence,
        "first_seen": first_seen,
        "current_offsets": current_offsets,
        "current_items": current_items,
        "missing_customers": missing_customers,
        "missing_offsets": missing_offsets,
        "missing_items": missing_items,
        "missing_significance": missing_significance,
    }


def _require(payload: dict, field: str, kind: type | tuple[type, ...]) -> Any:
    if field not in payload:
        raise SnapshotError(f"snapshot missing field {field!r}")
    value = payload[field]
    if not isinstance(value, kind):
        raise SnapshotError(
            f"snapshot field {field!r} has type {type(value).__name__}, "
            f"expected {kind}"
        )
    return value


def _ascending(ids: list, field: str) -> None:
    if any(b <= a for a, b in zip(ids, ids[1:], strict=False)):
        raise SnapshotError(f"snapshot column {field!r} is not strictly ascending")


def _spans(payload: dict, offsets_field: str, n_rows: int, *fields: str) -> list:
    """The offsets column ``offsets_field`` after checking that it slices
    ``n_rows`` rows out of the equally long columns ``fields``."""
    offsets = _require(payload, offsets_field, list)
    columns = [_require(payload, field, list) for field in fields]
    length = len(columns[0])
    if any(len(column) != length for column in columns):
        raise SnapshotError(
            f"snapshot columns {', '.join(map(repr, fields))} differ in length"
        )
    if (
        len(offsets) != n_rows + 1
        or offsets[0] != 0
        or offsets[-1] != length
        or any(b < a for a, b in zip(offsets, offsets[1:], strict=False))
    ):
        raise SnapshotError(
            f"snapshot column {offsets_field!r} does not span "
            f"{fields[0]!r} ({n_rows} rows, {length} values)"
        )
    return offsets


def restore_monitor(payload: dict) -> StabilityMonitor:
    """Rebuild a monitor from a :func:`snapshot_monitor` payload.

    Raises
    ------
    SnapshotError
        On any schema or version mismatch, or a malformed column: a
        missing one, offsets that do not span their column, per-customer
        columns of unequal length, customers out of ascending order, or
        an item repeated within one customer.
    """
    from repro.core.significance import ExponentialSignificance, SignificanceTracker
    from repro.core.streaming import CustomerState, StabilityMonitor
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

    customers = _require(payload, "customers", list)
    _ascending(customers, "customers")
    n_windows = _require(payload, "n_windows_observed", list)
    last_stability = _require(payload, "last_stability", list)
    if len(n_windows) != len(customers) or len(last_stability) != len(customers):
        raise SnapshotError(
            "snapshot columns 'customers', 'n_windows_observed' and "
            "'last_stability' differ in length"
        )
    item_offsets = _spans(
        payload, "item_offsets", len(customers), "items", "presence", "first_seen"
    )
    current_offsets = _spans(
        payload, "current_offsets", len(customers), "current_items"
    )
    items, presence = payload["items"], payload["presence"]
    first_seen, current_items = payload["first_seen"], payload["current_items"]
    states = monitor._states
    significance, counting = monitor.significance, monitor.counting
    for i, customer_id in enumerate(customers):
        lo, hi = item_offsets[i], item_offsets[i + 1]
        own = items[lo:hi]
        tracker = SignificanceTracker(significance, counting=counting)
        tracker._presence = dict(zip(own, presence[lo:hi], strict=True))
        tracker._first_seen = dict(zip(own, first_seen[lo:hi], strict=True))
        tracker._n_windows = n_windows[i]
        current = set(current_items[current_offsets[i] : current_offsets[i + 1]])
        if (
            len(tracker._presence) != hi - lo
            or len(current) != current_offsets[i + 1] - current_offsets[i]
        ):
            raise SnapshotError(
                f"snapshot customer {customer_id} repeats an item"
            )
        states[customer_id] = CustomerState(
            customer_id=customer_id,
            tracker=tracker,
            current_items=current,
            last_stability=last_stability[i],
        )

    missing_customers = _require(payload, "missing_customers", list)
    _ascending(missing_customers, "missing_customers")
    missing_offsets = _spans(
        payload,
        "missing_offsets",
        len(missing_customers),
        "missing_items",
        "missing_significance",
    )
    missing_items = payload["missing_items"]
    missing_significance = payload["missing_significance"]
    for i, customer_id in enumerate(missing_customers):
        lo, hi = missing_offsets[i], missing_offsets[i + 1]
        missing = dict(
            zip(missing_items[lo:hi], missing_significance[lo:hi], strict=True)
        )
        if len(missing) != hi - lo:
            raise SnapshotError(
                f"snapshot customer {customer_id} repeats a missing item"
            )
        monitor._last_missing[customer_id] = missing
    return monitor


def fold_unions(
    payload: dict,
    unions: Mapping[int, Iterable[int]],
    last_day_seen: int,
) -> None:
    """Fold per-customer item unions into a snapshot payload, in place.

    The payload becomes the snapshot of the monitor after the baskets
    the unions summarise, provided those closed no window: such baskets
    only register customers, add to their open-window item sets and
    move the clock to ``last_day_seen``, so nothing else changes.

    Raises
    ------
    KeyError, TypeError, ValueError, IndexError
        If the payload or the unions are malformed.
    """
    customers = payload["customers"]
    item_offsets = payload["item_offsets"]
    n_windows = payload["n_windows_observed"]
    last_stability = payload["last_stability"]
    current_offsets = payload["current_offsets"]
    current_items = payload["current_items"]
    row_of = {customer_id: row for row, customer_id in enumerate(customers)}
    merged = sorted(row_of.keys() | unions.keys())
    out_item_offsets = [0]
    out_n_windows: list[int] = []
    out_last: list[float] = []
    out_current_offsets = [0]
    out_current: list[int] = []
    for customer_id in merged:
        row = row_of.get(customer_id)
        if row is None:
            # First seen in these baskets: a freshly registered customer.
            out_item_offsets.append(out_item_offsets[-1])
            out_n_windows.append(0)
            out_last.append(math.nan)
            current = sorted(set(unions[customer_id]))
        else:
            out_item_offsets.append(
                out_item_offsets[-1] + item_offsets[row + 1] - item_offsets[row]
            )
            out_n_windows.append(n_windows[row])
            out_last.append(last_stability[row])
            current = current_items[current_offsets[row] : current_offsets[row + 1]]
            added = unions.get(customer_id)
            if added:
                current = sorted(set(current).union(added))
        out_current += current
        out_current_offsets.append(len(out_current))
    payload.update(
        customers=merged,
        item_offsets=out_item_offsets,
        n_windows_observed=out_n_windows,
        last_stability=out_last,
        current_offsets=out_current_offsets,
        current_items=out_current,
        last_day_seen=int(last_day_seen),
    )


# ----------------------------------------------------------------------
# The container: file and wire form
# ----------------------------------------------------------------------
def _column_bytes(name: str, kind: str, values: list) -> tuple[str, bytes]:
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
    elif array.size == 0 or (_I4_MIN <= array.min() and array.max() <= _I4_MAX):
        dtype = "<i4"
    else:
        dtype = "<i8"
    return dtype, array.astype(dtype, copy=False).tobytes()


def encode_snapshot(payload: Mapping[str, object]) -> bytes:
    """``payload`` in the checksummed container (see module docstring).

    The declared columns present as lists become arrays; every other key
    goes into the JSON header.  The output depends only on the payload's
    contents, never on its key order.

    Raises
    ------
    SnapshotError
        If a column holds anything but numbers, or integers beyond 64
        bits.
    """
    table: list[list[object]] = []
    blobs: list[bytes] = []
    offset = 0
    for name, kind in _COLUMNS.items():
        values = payload.get(name)
        if not isinstance(values, list):
            continue
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
    then the columns as lists.

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
            payload[name] = np.frombuffer(data, dtype, count, start).tolist()
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
