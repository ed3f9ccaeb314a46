"""Tests for the serve score table's columnar form (``scores.snap``)."""

from __future__ import annotations

import math

import pytest

from repro.runtime.snapshot import decode_snapshot, encode_snapshot
from repro.serve import CursorInvalid
from repro.serve.loop import _CustomerRecord, _table_from_payload, _table_to_payload


def _table() -> dict[int, _CustomerRecord]:
    return {
        9: _CustomerRecord(stability=0.25, alarm_windows={3: 0.4, 1: 0.5}),
        2: _CustomerRecord(),
        5: _CustomerRecord(stability=1.0),
    }


def test_round_trip_through_the_container():
    payload = decode_snapshot(encode_snapshot(_table_to_payload(_table())))
    assert payload["customers"].tolist() == [2, 5, 9]
    assert payload["alarm_offsets"].tolist() == [0, 0, 0, 2]
    assert payload["alarm_windows"].tolist() == [1, 3]
    table = _table_from_payload(payload)
    assert sorted(table) == [2, 5, 9]
    assert math.isnan(table[2].stability)
    assert table[9].alarm_windows == {1: 0.5, 3: 0.4}
    assert [table[c].flagged for c in (2, 5, 9)] == [False, False, True]


def _drop(column: str):
    def corrupt(payload: dict) -> None:
        payload[column] = payload[column][:-1]

    return corrupt


def _swap_ids(payload: dict) -> None:
    payload["customers"] = payload["customers"][::-1].copy()


@pytest.mark.parametrize(
    ("corrupt", "message"),
    [
        (_drop("stability"), "differ in length"),
        (_drop("alarm_stability"), "differ in length"),
        (_drop("alarm_offsets"), "does not span"),
        (_swap_ids, "not strictly ascending"),
        (lambda p: p.pop("alarm_windows"), "alarm_windows"),
        (lambda p: p.update(customers={"2": 0.5}), "customers"),
    ],
    ids=["stability", "alarm-stability", "offsets", "order", "missing", "json-era"],
)
def test_malformed_table_is_cursor_invalid(corrupt, message):
    payload = decode_snapshot(encode_snapshot(_table_to_payload(_table())))
    corrupt(payload)
    with pytest.raises(CursorInvalid, match=message):
        _table_from_payload(payload)
