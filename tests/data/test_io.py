"""Tests for repro.data.io (CSV/JSONL serialisation)."""

from __future__ import annotations

import re

import pytest

from repro.data.basket import Basket
from repro.data.cohorts import CohortLabels
from repro.data.io import (
    iter_log_csv,
    read_catalog_jsonl,
    read_cohorts_json,
    read_log_csv,
    write_catalog_jsonl,
    write_cohorts_json,
    write_log_csv,
)
from repro.data.items import Catalog
from repro.data.quality import render_quarantine_report
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, SchemaError


@pytest.fixture()
def log() -> TransactionLog:
    log = TransactionLog()
    log.add(Basket.of(customer_id=1, day=0, items=[3, 1], monetary=4.2))
    log.add(Basket.of(customer_id=1, day=9, items=[2], monetary=1.0))
    log.add(Basket.of(customer_id=5, day=4, items=[], monetary=0.0))
    return log


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    seg = cat.add_segment("Coffee", department="Beverages")
    cat.add_product("Arabica", seg.segment_id, unit_price=4.5)
    return cat


class TestLogCsv:
    def test_round_trip(self, log: TransactionLog, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        back = read_log_csv(path)
        assert back.n_baskets == log.n_baskets
        for customer in log.customers():
            original = [(b.day, b.items, b.monetary) for b in log.history(customer)]
            restored = [(b.day, b.items, b.monetary) for b in back.history(customer)]
            assert original == restored

    def test_deterministic_output(self, log: TransactionLog, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log_csv(log, a)
        write_log_csv(log, b)
        assert a.read_text() == b.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            read_log_csv(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("customer_id,day,items,monetary\n1,2\n")
        with pytest.raises(SchemaError, match="expected 4 fields"):
            read_log_csv(path)

    def test_non_numeric_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("customer_id,day,items,monetary\nx,0,1,1.0\n")
        with pytest.raises(SchemaError, match=":2:"):
            read_log_csv(path)

    def test_empty_items_round_trip(self, log: TransactionLog, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        back = read_log_csv(path)
        assert back.history(5)[0].items == frozenset()

    def test_monetary_round_trips_bit_exactly(self, tmp_path):
        # Sub-cent values used to be silently rounded by the %.2f writer.
        log = TransactionLog()
        values = (0.1 + 0.2, 4.005, 1e-4, 123456.789012345)
        for day, monetary in enumerate(values):
            log.add(
                Basket.of(customer_id=1, day=day, items=[1], monetary=monetary)
            )
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        back = read_log_csv(path)
        assert tuple(b.monetary for b in back.history(1)) == values


class TestLenientIngest:
    def _write_dirty(self, log: TransactionLog, tmp_path):
        path = tmp_path / "dirty.csv"
        write_log_csv(log, path)
        lines = path.read_text().splitlines()
        lines.insert(2, "7,abc,1 2,3.0")  # non-numeric day
        lines.insert(4, "too,few")  # field-count mismatch
        lines.append("7,-3,1,1.0")  # negative day (DataError)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_quarantine_sets_bad_rows_aside(self, log, tmp_path):
        path = self._write_dirty(log, tmp_path)
        clean, report = read_log_csv(path, on_error="quarantine")
        assert clean.n_baskets == log.n_baskets
        assert report.n_quarantined == 3
        assert report.n_rows_total == log.n_baskets + 3
        assert report.n_clean == log.n_baskets
        assert not report.is_clean
        lines = {row.line for row in report.rows}
        assert len(lines) == 3
        reasons = " | ".join(row.reason for row in report.rows)
        assert "expected 4 fields" in reasons
        assert "day offset" in reasons

    def test_default_strict_mode_unchanged(self, log, tmp_path):
        path = self._write_dirty(log, tmp_path)
        with pytest.raises(SchemaError, match=":3:"):
            read_log_csv(path)

    def test_clean_file_quarantines_nothing(self, log, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        clean, report = read_log_csv(path, on_error="quarantine")
        assert report.is_clean
        assert report.n_quarantined == 0
        assert clean.n_baskets == log.n_baskets

    def test_header_mismatch_always_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            read_log_csv(path, on_error="quarantine")

    def test_max_errors_cap(self, log, tmp_path):
        path = self._write_dirty(log, tmp_path)
        with pytest.raises(SchemaError, match="more than 2 malformed"):
            read_log_csv(path, on_error="quarantine", max_errors=2)

    def test_invalid_mode_rejected(self, log, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        with pytest.raises(ConfigError, match="on_error"):
            read_log_csv(path, on_error="ignore")
        with pytest.raises(ConfigError, match="max_errors"):
            read_log_csv(path, on_error="quarantine", max_errors=-1)

    def test_render_quarantine_report(self, log, tmp_path):
        path = self._write_dirty(log, tmp_path)
        _, report = read_log_csv(path, on_error="quarantine")
        text = render_quarantine_report(report, limit=2)
        assert "3 quarantined" in text
        assert "line " in text
        assert "... and 1 more" in text


class TestIterLogCsv:
    def test_streams_same_content_as_batch_reader(self, log, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        streamed = list(iter_log_csv(path))
        assert len(streamed) == log.n_baskets
        assert TransactionLog(streamed).item_universe() == log.item_universe()

    def test_is_lazy(self, tmp_path):
        path = tmp_path / "log.csv"
        for bad_row in ("BROKEN", "2,-4,1,1.0"):
            path.write_text(
                f"customer_id,day,items,monetary\n1,0,1,1.0\n{bad_row}\n"
            )
            stream = iter_log_csv(path)
            first = next(stream)
            assert first.customer_id == 1
            with pytest.raises(SchemaError, match=re.escape(f"{path}:3: ")):
                next(stream)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(SchemaError, match="header"):
            next(iter_log_csv(path))


class TestCatalogJsonl:
    def test_round_trip(self, catalog: Catalog, tmp_path):
        path = tmp_path / "catalog.jsonl"
        write_catalog_jsonl(catalog, path)
        back = read_catalog_jsonl(path)
        assert back.n_segments == catalog.n_segments
        assert back.n_products == catalog.n_products
        assert back.segment_by_name("Coffee").department == "Beverages"
        assert back.product(0).unit_price == 4.5

    def test_product_before_segment_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "product", "product_id": 0, "name": "x", "segment_id": 0}\n')
        with pytest.raises(SchemaError, match="unknown segment"):
            read_catalog_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "aisle"}\n')
        with pytest.raises(SchemaError, match="unknown record kind"):
            read_catalog_jsonl(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(SchemaError, match="invalid JSON"):
            read_catalog_jsonl(path)

    def test_blank_lines_ignored(self, catalog: Catalog, tmp_path):
        path = tmp_path / "catalog.jsonl"
        write_catalog_jsonl(catalog, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_catalog_jsonl(path).n_products == 1


class TestCohortsJson:
    def test_round_trip(self, tmp_path):
        cohorts = CohortLabels(
            loyal=frozenset({1, 2}),
            churners=frozenset({7}),
            onset_month=18,
            churner_onsets={7: 19},
        )
        path = tmp_path / "cohorts.json"
        write_cohorts_json(cohorts, path)
        back = read_cohorts_json(path)
        assert back == cohorts

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"loyal": []}')
        with pytest.raises(SchemaError, match="missing key"):
            read_cohorts_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(SchemaError, match="invalid JSON"):
            read_cohorts_json(path)
