"""Tests for StabilityMonitor snapshot/restore and its container.

The contract under test is the round-trip guarantee: interrupting a
stream at any point, snapshotting, restoring (even through the binary
container a file holds) and feeding the rest of the stream must produce
exactly the reports an uninterrupted monitor produces.  A truncated,
torn or altered container must raise, never restore.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.atomicio import atomic_write_json
from repro.config import ExperimentConfig
from repro.core.significance import LinearSignificance
from repro.core.streaming import StabilityMonitor, WindowCloseReport, merge_unions
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.errors import SnapshotError
from repro.runtime.faults import tear_file
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    decode_snapshot,
    encode_snapshot,
    load_snapshot,
    restore_monitor,
    save_snapshot,
    snapshot_monitor,
)


def _stream(dataset):
    return sorted(dataset.log, key=lambda basket: basket.day)


def _assert_reports_equal(
    left: list[WindowCloseReport], right: list[WindowCloseReport]
) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a.window_index == b.window_index
        assert a.alarms == b.alarms
        assert set(a.stabilities) == set(b.stabilities)
        for customer, value in a.stabilities.items():
            other = b.stabilities[customer]
            if math.isnan(value):
                assert math.isnan(other)
            else:
                assert value == other


def _monitor(dataset) -> StabilityMonitor:
    config = ExperimentConfig(window_months=2, alpha=2.0)
    return StabilityMonitor.from_config(dataset.calendar, config, beta=0.5)


def test_round_trip_mid_stream(tiny_dataset):
    baskets = _stream(tiny_dataset)
    cut = len(baskets) // 2

    reference = _monitor(tiny_dataset)
    expected = reference.ingest_many(baskets)
    expected += reference.finish()

    interrupted = _monitor(tiny_dataset)
    head_reports = interrupted.ingest_many(baskets[:cut])
    # Snapshot through the container — what a file sees.
    payload = decode_snapshot(encode_snapshot(snapshot_monitor(interrupted)))
    restored = restore_monitor(payload)
    tail_reports = restored.ingest_many(baskets[cut:])
    tail_reports += restored.finish()

    _assert_reports_equal(head_reports + tail_reports, expected)
    # Alarm evidence survives the restart too.
    for customer in reference.customers():
        assert restored.explain_alarm(customer) == reference.explain_alarm(
            customer
        )


def test_save_load_file(tiny_dataset, tmp_path):
    baskets = _stream(tiny_dataset)
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(baskets[: len(baskets) // 3])
    path = save_snapshot(monitor, tmp_path / "monitor.json")
    restored = load_snapshot(path)
    assert restored.current_window == monitor.current_window
    assert restored.customers() == monitor.customers()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert leftovers == []


def test_torn_snapshot_detected(tiny_dataset, tmp_path):
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(_stream(tiny_dataset)[:20])
    path = save_snapshot(monitor, tmp_path / "monitor.json")
    tear_file(path, keep_fraction=0.6)
    with pytest.raises(SnapshotError, match="corrupt or truncated"):
        load_snapshot(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        load_snapshot(tmp_path / "absent.json")


def test_version_and_schema_validation(tiny_dataset):
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(_stream(tiny_dataset)[:10])
    payload = snapshot_monitor(monitor)

    wrong_schema = dict(payload, schema="something-else")
    with pytest.raises(SnapshotError, match="schema"):
        restore_monitor(wrong_schema)

    wrong_version = dict(payload, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(SnapshotError, match="version"):
        restore_monitor(wrong_version)

    del payload["customers"]
    with pytest.raises(SnapshotError, match="customers"):
        restore_monitor(payload)


def _first_with_rows(payload: dict, offsets: str, least: int) -> int:
    """Start row of the first customer owning at least ``least`` rows."""
    spans = payload[offsets]
    return next(
        lo for lo, hi in zip(spans, spans[1:], strict=False) if hi - lo >= least
    )


def _set(column: str, index: int, value) -> Callable[[dict], None]:
    def corrupt(payload: dict) -> None:
        # A snapshot's columns are the monitor's own read-only arrays.
        payload[column] = payload[column].copy()
        payload[column][index] = value

    return corrupt


def _drop_last(column: str) -> Callable[[dict], None]:
    def corrupt(payload: dict) -> None:
        payload[column] = payload[column][:-1]

    return corrupt


def _repeat(offsets: str, column: str) -> Callable[[dict], None]:
    """Give the first customer with two rows in ``column`` one row twice."""

    def corrupt(payload: dict) -> None:
        lo = _first_with_rows(payload, offsets, 2)
        _set(column, lo + 1, payload[column][lo])(payload)

    return corrupt


def _swap_customers(payload: dict) -> None:
    ids = payload["customers"]
    payload["customers"] = ids[[1, 0, *range(2, len(ids))]]


def _swap_first_alarms(payload: dict) -> None:
    """Swap the customers of the first two alarms (the same window)."""
    assert payload["alarm_windows"][0] == payload["alarm_windows"][1]
    ids = payload["alarm_customers"]
    payload["alarm_customers"] = ids[[1, 0, *range(2, len(ids))]]


def _alarm_in_open_window(payload: dict) -> None:
    _set("alarm_windows", -1, payload["current_window"])(payload)


#: (corruption, the error it must raise) per malformed-column class.
_MALFORMED = {
    "item offsets overrun their column": (_set("item_offsets", -1, 10**6), "span"),
    "current offsets one short": (_drop_last("current_offsets"), "span"),
    "missing offsets decrease": (_set("missing_offsets", 1, -1), "span"),
    "presence one short": (_drop_last("presence"), "differ in length"),
    "significance one short": (
        _drop_last("missing_significance"),
        "differ in length",
    ),
    "stability one short": (_drop_last("last_stability"), "differ in length"),
    "duplicate item": (_repeat("item_offsets", "items"), "repeats an item"),
    "duplicate open-window item": (
        _repeat("current_offsets", "current_items"),
        "repeats an item",
    ),
    "unsorted customers": (_swap_customers, "'customers' is not strictly ascending"),
    "missing column": (lambda p: p.pop("first_seen"), "first_seen"),
    "alarm stability one short": (_drop_last("alarm_stability"), "differ in length"),
    "alarm windows one short": (_drop_last("alarm_windows"), "differ in length"),
    "alarms out of order": (_swap_first_alarms, "alarm log.*not strictly ascending"),
    "alarm repeated": (
        lambda p: _set("alarm_customers", 1, p["alarm_customers"][0])(p),
        "alarm log.*not strictly ascending",
    ),
    "alarm in the open window": (_alarm_in_open_window, "outside the closed windows"),
    "missing alarm column": (lambda p: p.pop("alarm_windows"), "alarm_windows"),
}


def test_malformed_columns_rejected(tiny_dataset):
    monitor = _monitor(tiny_dataset)
    baskets = _stream(tiny_dataset)
    monitor.ingest_many(baskets[: len(baskets) // 2])
    assert len(monitor._columns["alarm_customers"]) >= 2
    for case, (corrupt, message) in _MALFORMED.items():
        payload = snapshot_monitor(monitor)
        corrupt(payload)
        try:
            restore_monitor(payload)
        except SnapshotError as exc:
            assert re.search(message, str(exc)), (case, str(exc))
        else:
            pytest.fail(f"{case}: restored without error")


def test_descending_open_window_items_name_their_customer(tiny_dataset):
    # Distinct items, so no repeat: only the order is wrong, and the
    # container's checksum is recomputed over the changed column.
    monitor = _monitor(tiny_dataset)
    baskets = _stream(tiny_dataset)
    monitor.ingest_many(baskets[: len(baskets) // 2])
    payload = snapshot_monitor(monitor)
    spans = payload["current_offsets"]
    row = next(i for i in range(len(spans) - 1) if spans[i + 1] - spans[i] >= 2)
    lo, hi = spans[row], spans[row + 1]
    items = payload["current_items"].copy()
    items[lo:hi] = items[lo:hi][::-1]
    payload["current_items"] = items
    decoded = decode_snapshot(encode_snapshot(payload))
    customer = payload["customers"][row]
    with pytest.raises(
        SnapshotError,
        match=f"customer {customer}'s open-window items do not strictly ascend",
    ):
        restore_monitor(decoded)


def test_version_1_json_snapshot_names_both_versions(tmp_path):
    path = atomic_write_json(
        tmp_path / "old.json",
        {"schema": "repro.stability-monitor", "version": 1, "customers": []},
    )
    with pytest.raises(
        SnapshotError,
        match=f"found version 1, expected version {SNAPSHOT_VERSION}",
    ):
        load_snapshot(path)


def test_custom_significance_refused(tiny_dataset):
    config = ExperimentConfig(window_months=2)
    grid = config.grid(tiny_dataset.calendar)
    monitor = StabilityMonitor(grid, significance=LinearSignificance())
    with pytest.raises(SnapshotError, match="LinearSignificance"):
        snapshot_monitor(monitor)


# ----------------------------------------------------------------------
# The container
# ----------------------------------------------------------------------
#: Small ids and items, and ids and items past 2**31 (the ``<i8`` path).
#: Items near 2**62 next to small ones overflow a pair key's spread, so
#: ``pair_keys`` ranks them first.
_IDS = st.one_of(st.integers(0, 40), st.integers(2**31, 2**40))
_ITEMS = st.one_of(
    st.integers(0, 12), st.integers(2**31, 2**31 + 12), st.integers(2**62, 2**62 + 12)
)
_GRID = WindowGrid.daily(40, 10)


@st.composite
def _monitors(draw) -> StabilityMonitor:
    """A monitor fed random baskets up to a random day, plus one
    registered customer who never buys (no items, ``nan`` stability)."""
    monitor = StabilityMonitor(_GRID, beta=0.5)
    baskets = draw(
        st.lists(
            st.tuples(_IDS, st.integers(0, 39), st.frozensets(_ITEMS, max_size=5)),
            max_size=40,
        )
    )
    for customer_id, day, items in sorted(baskets, key=lambda b: b[1]):
        monitor.ingest(Basket.of(customer_id=customer_id, day=day, items=items))
    monitor.register(draw(_IDS))
    monitor.advance_to_day(draw(st.integers(max(monitor.last_day_seen, 0), 39)))
    return monitor


@seed(20161017)
@settings(max_examples=150, deadline=None)
@given(_monitors())
@example(StabilityMonitor(_GRID))
def test_container_round_trip_is_exact(monitor):
    blob = encode_snapshot(snapshot_monitor(monitor))
    restored = restore_monitor(decode_snapshot(blob))
    assert encode_snapshot(snapshot_monitor(restored)) == blob
    # The restored monitor holds the same columns, in the same order and
    # of the same dtype, and the same non-empty open-window unions.
    for name, column in monitor._columns.items():
        other = restored._columns[name]
        assert other.dtype == column.dtype, name
        assert np.array_equal(other, column, equal_nan=column.dtype.kind == "f"), name
    assert _open_window(restored) == _open_window(monitor)


def _open_window(monitor: StabilityMonitor) -> dict[int, list[int]]:
    """The open window's non-empty item unions, by customer."""
    union = merge_unions(monitor._open)
    offsets = union.item_offsets.tolist()
    return {
        customer_id: union.items[lo:hi].tolist()
        for customer_id, lo, hi in zip(
            union.customers.tolist(), offsets, offsets[1:], strict=False
        )
        if hi > lo
    }


def test_integer_width_follows_the_data():
    def size(values: list[int]) -> int:
        return len(encode_snapshot({"items": values}))

    # Same header length either way: only the element width differs.
    assert size([2**15 - 1, -(2**15)]) - size([1, 2]) == 0
    assert size([2**15, 0]) - size([1, 2]) == 4
    assert size([-(2**15) - 1, 0]) - size([1, 2]) == 4
    assert size([2**31 - 1, -(2**31)]) - size([1, 2]) == 4
    assert size([2**31, 0]) - size([1, 2]) == 12
    assert size([-(2**31) - 1, 0]) - size([1, 2]) == 12
    for values, dtype in (
        ([], np.int16),
        ([2**15 - 1, -(2**15)], np.int16),
        ([2**15], np.int32),
        ([2**31 - 1, -(2**31)], np.int32),
        ([2**63 - 1, -(2**63), 2**31], np.int64),
    ):
        decoded = decode_snapshot(encode_snapshot({"items": values}))["items"]
        assert decoded.dtype == dtype and decoded.tolist() == values, values
    with pytest.raises(SnapshotError, match="items"):
        encode_snapshot({"items": [2**63]})
    with pytest.raises(SnapshotError, match="items"):
        encode_snapshot({"items": [1.5]})


def test_other_keys_ride_in_the_header():
    payload = {"customers": {"7": [1, None]}, "shards": [{"a": 1}], "n": 2}
    assert decode_snapshot(encode_snapshot(payload)) == payload


def test_every_array_is_a_column():
    payload = {"b": np.array([0.5, np.nan]), "a": np.array([3, 2**40]), "n": [1]}
    decoded = decode_snapshot(encode_snapshot(payload))
    assert decoded["a"].dtype == np.int64 and decoded["a"].tolist() == [3, 2**40]
    assert np.array_equal(decoded["b"], payload["b"], equal_nan=True)
    assert decoded["n"] == [1]
    with pytest.raises(SnapshotError, match="flags"):
        encode_snapshot({"flags": np.array([True])})
    with pytest.raises(SnapshotError, match="grid"):
        encode_snapshot({"grid": np.zeros((2, 2))})


def _section_ends(blob: bytes) -> list[int]:
    """Byte offsets where the container's sections end: magic, header
    length, header, checksum, then each column but the last."""
    (header_length,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_length])
    data_start = 12 + header_length + 4
    ends = [0, 8, 12, 12 + header_length, data_start]
    for _name, dtype, offset, count in header["columns"]:
        ends.append(data_start + offset + count * int(dtype[-1]))
    return sorted(set(ends) - {len(blob)})


def _snapshot_blob(tiny_dataset) -> bytes:
    monitor = _monitor(tiny_dataset)
    baskets = _stream(tiny_dataset)
    monitor.ingest_many(baskets[: len(baskets) // 2])
    return encode_snapshot(snapshot_monitor(monitor))


def test_truncation_raises(tiny_dataset):
    blob = _snapshot_blob(tiny_dataset)
    ends = _section_ends(blob)
    assert len(ends) > 10
    cuts = ends + random.Random(7).sample(range(len(blob)), 200)
    for cut in cuts:
        with pytest.raises(SnapshotError, match="corrupt or truncated"):
            decode_snapshot(blob[:cut])


def test_every_altered_byte_raises(tiny_dataset):
    blob = _snapshot_blob(tiny_dataset)
    for index in range(len(blob)):
        altered = bytearray(blob)
        altered[index] ^= 0x20
        with pytest.raises(SnapshotError):
            decode_snapshot(bytes(altered))
