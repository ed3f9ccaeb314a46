"""Serialisation of transaction logs, catalogs and cohorts.

Two formats are supported:

* **CSV** for transaction logs — one row per receipt with a
  space-separated item list, the common interchange shape for retail
  basket datasets (and the shape public datasets like Instacart or
  dunnhumby reduce to).
* **JSONL** for catalogs and cohort labels — one JSON object per line.

All writers produce deterministic output (sorted ids) so files can be
diffed across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.atomicio import atomic_write_json
from repro.data.basket import Basket
from repro.data.cohorts import CohortLabels
from repro.data.items import Catalog
from repro.data.quality import QuarantinedRow, QuarantineReport
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, DataError, SchemaError

__all__ = [
    "write_log_csv",
    "read_log_csv",
    "write_catalog_jsonl",
    "read_catalog_jsonl",
    "write_cohorts_json",
    "read_cohorts_json",
]

_LOG_HEADER = ["customer_id", "day", "items", "monetary"]


# ----------------------------------------------------------------------
# Transaction logs (CSV)
# ----------------------------------------------------------------------
def write_log_csv(log: TransactionLog, path: str | Path) -> None:
    """Write a transaction log as CSV, one row per receipt.

    Monetary values round-trip bit-exactly (see :func:`_format_log_row`).
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LOG_HEADER)
        writer.writerows(_format_log_row(basket) for basket in log)


def _format_log_row(basket: Basket) -> list[int | str]:
    """One basket as a CSV row.

    Monetary values are written with full ``repr`` precision so a
    write/read round trip reproduces every float bit-exactly (a fixed
    ``%.2f`` format silently rounded sub-cent values).
    """
    return [
        basket.customer_id,
        basket.day,
        " ".join(str(i) for i in sorted(basket.items)),
        repr(basket.monetary),
    ]


def _parse_log_row(row: list[str]) -> Basket:
    """One CSV row as a basket; malformed rows raise ``ValueError`` or
    ``DataError`` with the field-level reason."""
    if len(row) != len(_LOG_HEADER):
        raise ValueError(f"expected {len(_LOG_HEADER)} fields, got {len(row)}")
    items = [int(token) for token in row[2].split()] if row[2] else []
    return Basket.of(
        customer_id=int(row[0]),
        day=int(row[1]),
        items=items,
        monetary=float(row[3]),
    )


def read_log_csv(
    path: str | Path,
    on_error: str = "raise",
    max_errors: int = 100,
) -> TransactionLog | tuple[TransactionLog, QuarantineReport]:
    """Read a transaction log written by :func:`write_log_csv`.

    Parameters
    ----------
    path:
        The CSV file to read.
    on_error:
        ``"raise"`` (default) aborts on the first malformed row with a
        :class:`~repro.errors.SchemaError` — the strict behaviour
        suitable for files this package wrote itself.  ``"quarantine"``
        sets malformed rows aside instead and returns
        ``(log, QuarantineReport)``: the lenient mode for real retailer
        exports, where one torn row should not discard an ingest.  A
        mismatched *header* always raises — that is a wrong-file signal,
        not a bad row.
    max_errors:
        Quarantine capacity: exceeding it raises a
        :class:`~repro.errors.SchemaError` (a file that is mostly
        garbage should fail loudly, not be silently filtered).

    Raises
    ------
    SchemaError
        If the header does not match; under ``on_error="raise"``, if any
        row is malformed; under ``on_error="quarantine"``, if more than
        ``max_errors`` rows are malformed.
    """
    if on_error not in ("raise", "quarantine"):
        raise ConfigError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    if max_errors < 0:
        raise ConfigError(f"max_errors must be >= 0, got {max_errors}")
    path = Path(path)
    log = TransactionLog()
    quarantined: list[QuarantinedRow] = []
    n_rows = 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _LOG_HEADER:
            raise SchemaError(f"unexpected CSV header in {path}: {header}")
        for line_no, row in enumerate(reader, start=2):
            n_rows += 1
            try:
                basket = _parse_log_row(row)
            except (ValueError, DataError) as exc:
                if on_error == "raise":
                    raise SchemaError(f"{path}:{line_no}: {exc}") from exc
                if len(quarantined) >= max_errors:
                    raise SchemaError(
                        f"{path}: more than {max_errors} malformed rows "
                        f"(first overflow at line {line_no}: {exc}); "
                        f"refusing to quarantine further"
                    ) from exc
                quarantined.append(QuarantinedRow(line=line_no, reason=str(exc)))
                continue
            log.add(basket)
    if on_error == "raise":
        return log
    report = QuarantineReport(
        path=str(path), rows=tuple(quarantined), n_rows_total=n_rows
    )
    return log, report


# ----------------------------------------------------------------------
# Catalogs (JSONL)
# ----------------------------------------------------------------------
def write_catalog_jsonl(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSONL: segment records then product records."""
    path = Path(path)
    with path.open("w") as handle:
        for segment in catalog.segments():
            handle.write(
                json.dumps(
                    {
                        "kind": "segment",
                        "segment_id": segment.segment_id,
                        "name": segment.name,
                        "department": segment.department,
                    }
                )
                + "\n"
            )
        for product in catalog.products():
            handle.write(
                json.dumps(
                    {
                        "kind": "product",
                        "product_id": product.product_id,
                        "name": product.name,
                        "segment_id": product.segment_id,
                        "unit_price": product.unit_price,
                    }
                )
                + "\n"
            )


def read_catalog_jsonl(path: str | Path) -> Catalog:
    """Read a catalog written by :func:`write_catalog_jsonl`.

    Ids are re-assigned densely in file order; files produced by the
    writer round-trip exactly because the writer emits records in id
    order.
    """
    path = Path(path)
    catalog = Catalog()
    segment_remap: dict[int, int] = {}
    with path.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_no}: invalid JSON") from exc
            kind = record.get("kind")
            if kind == "segment":
                segment = catalog.add_segment(
                    record["name"], department=record.get("department", "Unknown")
                )
                segment_remap[int(record["segment_id"])] = segment.segment_id
            elif kind == "product":
                original = int(record["segment_id"])
                if original not in segment_remap:
                    raise SchemaError(
                        f"{path}:{line_no}: product references unknown segment {original}"
                    )
                catalog.add_product(
                    record["name"],
                    segment_remap[original],
                    unit_price=float(record.get("unit_price", 1.0)),
                )
            else:
                raise SchemaError(f"{path}:{line_no}: unknown record kind {kind!r}")
    return catalog


# ----------------------------------------------------------------------
# Cohorts (JSON)
# ----------------------------------------------------------------------
def write_cohorts_json(cohorts: CohortLabels, path: str | Path) -> None:
    """Write cohort labels as a single JSON document."""
    path = Path(path)
    payload = {
        "loyal": sorted(cohorts.loyal),
        "churners": sorted(cohorts.churners),
        "onset_month": cohorts.onset_month,
        "churner_onsets": {str(k): v for k, v in sorted(cohorts.churner_onsets.items())},
    }
    atomic_write_json(path, payload, indent=2, sort_keys=False)


def read_cohorts_json(path: str | Path) -> CohortLabels:
    """Read cohort labels written by :func:`write_cohorts_json`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON") from exc
    for key in ("loyal", "churners", "onset_month"):
        if key not in payload:
            raise SchemaError(f"{path}: missing key {key!r}")
    return CohortLabels(
        loyal=frozenset(int(c) for c in payload["loyal"]),
        churners=frozenset(int(c) for c in payload["churners"]),
        onset_month=int(payload["onset_month"]),
        churner_onsets={
            int(k): int(v) for k, v in payload.get("churner_onsets", {}).items()
        },
    )
