"""Snapshot/restore for the streaming :class:`~repro.core.streaming.StabilityMonitor`.

A deployed monitor holds months of accumulated per-customer significance
state; a process restart used to lose all of it, silently resetting
every customer's alarm history.  This module serialises the complete
monitor state to versioned JSON with a **round-trip guarantee**: a
restored monitor produces byte-for-byte identical
:class:`~repro.core.streaming.WindowCloseReport` objects for the rest of
the stream.

Preserved exactly:

* the window grid (boundaries + months-per-window) and the scoring
  configuration (``beta``, ``alpha``, counting scheme, burn-in);
* per customer: the tracker's presence counts and first-seen windows
  **in first-seen order** (the batched window close flattens dicts in
  insertion order, so ordering is part of bit-identical equality),
  the number of observed windows, the accumulating current-window item
  set and the last stability;
* stream position: current window, last day seen, finished flag, and
  the last window's missing-item evidence (so ``explain_alarm`` keeps
  working across a restart).

Files are written atomically (temp-then-rename).  Loading validates the
schema name, format version and field shapes; a corrupt, truncated or
foreign file raises :class:`~repro.errors.SnapshotError` rather than
being silently ingested.

Only the paper configuration (exponential significance) is
serialisable — a custom significance rule has no stable wire format, so
:func:`snapshot_monitor` refuses it loudly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import TYPE_CHECKING

from repro.atomicio import atomic_write_json
from repro.errors import SnapshotError

if TYPE_CHECKING:
    from repro.core.streaming import StabilityMonitor

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "snapshot_monitor",
    "restore_monitor",
    "fold_unions",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_SCHEMA = "repro.stability-monitor"
SNAPSHOT_VERSION = 1


def snapshot_monitor(monitor: StabilityMonitor) -> dict:
    """The monitor's complete state as a JSON-serialisable payload.

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
    customers = []
    for customer_id in sorted(monitor._states):
        state = monitor._states[customer_id]
        tracker = state.tracker
        last = state.last_stability
        customers.append(
            {
                "customer_id": customer_id,
                # item -> count pairs in first-seen (dict insertion)
                # order; the batched close flattens in this order, so it
                # must survive the round trip.
                "presence": [
                    [item, count] for item, count in tracker._presence.items()
                ],
                "first_seen": [
                    [item, window]
                    for item, window in tracker._first_seen.items()
                ],
                "n_windows_observed": tracker.n_windows_observed,
                "current_items": sorted(state.current_items),
                "last_stability": None if math.isnan(last) else float(last),
            }
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
        "last_missing": [
            [customer_id, [[item, sig] for item, sig in missing.items()]]
            for customer_id, missing in sorted(monitor._last_missing.items())
        ],
        "customers": customers,
    }


def _require(payload: dict, field: str, kind: type | tuple[type, ...]) -> object:
    if field not in payload:
        raise SnapshotError(f"snapshot missing field {field!r}")
    value = payload[field]
    if not isinstance(value, kind):
        raise SnapshotError(
            f"snapshot field {field!r} has type {type(value).__name__}, "
            f"expected {kind}"
        )
    return value


def _int_pairs(raw: object, field: str) -> list[tuple[int, float]]:
    if not isinstance(raw, list) or any(
        not isinstance(pair, list) or len(pair) != 2 for pair in raw
    ):
        raise SnapshotError(f"snapshot field {field!r} must be a list of pairs")
    return [(int(a), b) for a, b in raw]


def restore_monitor(payload: dict) -> StabilityMonitor:
    """Rebuild a monitor from a :func:`snapshot_monitor` payload.

    Raises
    ------
    SnapshotError
        On any schema, version or shape mismatch.
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
    for customer_id, missing_pairs in _require(payload, "last_missing", list):
        monitor._last_missing[int(customer_id)] = {
            item: float(sig)
            for item, sig in _int_pairs(missing_pairs, "last_missing")
        }
    for record in _require(payload, "customers", list):
        if not isinstance(record, dict):
            raise SnapshotError("snapshot customer record must be an object")
        customer_id = int(_require(record, "customer_id", int))
        tracker = SignificanceTracker(
            monitor.significance, counting=monitor.counting
        )
        # Rebuild the dicts pair-by-pair so insertion (first-seen) order
        # is preserved exactly.
        for item, count in _int_pairs(record.get("presence", []), "presence"):
            tracker._presence[item] = int(count)
        for item, window in _int_pairs(
            record.get("first_seen", []), "first_seen"
        ):
            tracker._first_seen[item] = int(window)
        tracker._n_windows = int(_require(record, "n_windows_observed", int))
        last = record.get("last_stability")
        monitor._states[customer_id] = CustomerState(
            customer_id=customer_id,
            tracker=tracker,
            current_items={
                int(item) for item in record.get("current_items", [])
            },
            last_stability=math.nan if last is None else float(last),
        )
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
    KeyError, TypeError, ValueError
        If the payload or the unions are malformed.
    """
    records = {record["customer_id"]: record for record in payload["customers"]}
    registered = False
    for customer_id, items in unions.items():
        record = records.get(customer_id)
        if record is None:
            # First seen in these baskets: a freshly registered customer.
            record = records[customer_id] = {
                "customer_id": customer_id,
                "presence": [],
                "first_seen": [],
                "n_windows_observed": 0,
                "current_items": [],
                "last_stability": None,
            }
            registered = True
        record["current_items"] = sorted(set(record["current_items"]).union(items))
    if registered:
        payload["customers"] = [records[key] for key in sorted(records)]
    payload["last_day_seen"] = int(last_day_seen)


def save_snapshot(monitor: StabilityMonitor, path: str | Path) -> Path:
    """Write a monitor snapshot atomically (temp-then-rename)."""
    path = Path(path)
    payload = snapshot_monitor(monitor)
    return atomic_write_json(path, payload)


def load_snapshot(path: str | Path) -> StabilityMonitor:
    """Restore a monitor from a snapshot file.

    Raises
    ------
    SnapshotError
        If the file is unreadable, corrupt/truncated, or fails schema
        validation.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"{path}: corrupt or truncated snapshot (invalid JSON)"
        ) from exc
    try:
        return restore_monitor(payload)
    except SnapshotError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
