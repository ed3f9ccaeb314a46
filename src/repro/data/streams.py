"""Out-of-core transaction streaming.

The paper's dataset (receipts of 6M customers over 28 months) does not fit
in memory as Python objects.  This module provides the streaming layer a
full-scale deployment would use:

* :func:`iter_log_csv` — a generator over baskets in a receipt CSV,
  constant memory, with the same schema validation as the batch reader;
* :func:`stream_to_monitor` — pump a CSV straight into an online
  :class:`~repro.core.streaming.StabilityMonitor` without materialising a
  :class:`~repro.data.transactions.TransactionLog`;
* :class:`PartitionedLogWriter` / :func:`iter_partitioned_log` — a sharded
  on-disk layout (one CSV per customer-id bucket) enabling per-shard
  parallel processing and selective reads.

Rows are formatted and parsed by :mod:`repro.data.io` (``customer_id,
day, items, monetary``), so files are interchangeable between the batch
and streaming paths.
"""

from __future__ import annotations

import csv
import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.data.basket import Basket
from repro.data.io import _LOG_HEADER, _format_log_row, _parse_log_row
from repro.errors import ConfigError, DataError, SchemaError

__all__ = [
    "iter_log_csv",
    "stream_to_monitor",
    "PartitionedLogWriter",
    "iter_partitioned_log",
    "DayBatch",
    "iter_day_batches",
]

def iter_log_csv(path: str | Path) -> Iterator[Basket]:
    """Stream baskets from a receipt CSV without loading it whole.

    Yields baskets in file order; validation failures raise
    :class:`~repro.errors.SchemaError` with the offending line number.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _LOG_HEADER:
            raise SchemaError(f"unexpected CSV header in {path}: {header}")
        for line_no, row in enumerate(reader, start=2):
            try:
                basket = _parse_log_row(row)
            except (ValueError, DataError) as exc:
                raise SchemaError(f"{path}:{line_no}: {exc}") from exc
            yield basket


def stream_to_monitor(path: str | Path, monitor) -> list:
    """Pump a day-ordered receipt CSV into a streaming monitor.

    The file must be sorted by day (the monitor enforces it); returns the
    concatenated window-close reports including the final :meth:`finish`.
    """
    reports = list(monitor.ingest_many(iter_log_csv(path)))
    reports.extend(monitor.finish())
    return reports


class PartitionedLogWriter:
    """Writes a transaction stream into customer-hashed CSV shards.

    Shard of a basket: ``customer_id % n_shards``.  All baskets of one
    customer land in one shard, so per-customer computations (windowing,
    stability) can process shards independently — the unit of parallelism
    a 6M-customer deployment would fan out over.

    Use as a context manager::

        with PartitionedLogWriter(directory, n_shards=8) as writer:
            for basket in baskets:
                writer.write(basket)
    """

    def __init__(self, directory: str | Path, n_shards: int = 8) -> None:
        if n_shards <= 0:
            raise ConfigError(f"n_shards must be positive, got {n_shards}")
        self.directory = Path(directory)
        self.n_shards = int(n_shards)
        self._handles: list | None = None
        self._writers: list | None = None

    def shard_path(self, shard: int) -> Path:
        """Path of one shard file."""
        if not 0 <= shard < self.n_shards:
            raise ConfigError(f"shard {shard} out of range [0, {self.n_shards})")
        return self.directory / f"shard-{shard:04d}.csv"

    def __enter__(self) -> PartitionedLogWriter:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handles = [
            self.shard_path(shard).open("w", newline="")
            for shard in range(self.n_shards)
        ]
        self._writers = []
        for handle in self._handles:
            writer = csv.writer(handle)
            writer.writerow(_LOG_HEADER)
            self._writers.append(writer)
        return self

    def write(self, basket: Basket) -> None:
        """Append one basket to its customer's shard."""
        if self._writers is None:
            raise ConfigError("PartitionedLogWriter used outside its context")
        shard = basket.customer_id % self.n_shards
        self._writers[shard].writerow(_format_log_row(basket))

    def write_all(self, baskets: Iterable[Basket]) -> int:
        """Append many baskets; returns the count written."""
        count = 0
        for basket in baskets:
            self.write(basket)
            count += 1
        return count

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handles:
            for handle in self._handles:
                handle.close()
        self._handles = None
        self._writers = None


def iter_partitioned_log(
    directory: str | Path,
    shards: Iterable[int] | None = None,
    merge_by_day: bool = False,
) -> Iterator[Basket]:
    """Stream baskets back from a partitioned log directory.

    Parameters
    ----------
    directory:
        Directory written by :class:`PartitionedLogWriter`.
    shards:
        Restrict to specific shard numbers (default: every
        ``shard-*.csv`` present).
    merge_by_day:
        When true, k-way merge the shards on the day column so the
        combined stream is day-ordered (required by the streaming
        monitor).  Shard files written from a day-ordered source are
        individually day-ordered, which the merge relies on.
    """
    directory = Path(directory)
    if shards is None:
        paths = sorted(directory.glob("shard-*.csv"))
    else:
        writer = PartitionedLogWriter(directory, n_shards=max(shards) + 1)
        paths = [writer.shard_path(shard) for shard in sorted(set(shards))]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise SchemaError(f"missing shard files: {[str(p) for p in missing]}")
    if not merge_by_day:
        for path in paths:
            yield from iter_log_csv(path)
        return
    streams = [iter_log_csv(path) for path in paths]
    merged = heapq.merge(
        *(_keyed_stream(stream, index) for index, stream in enumerate(streams))
    )
    for __, __, basket in merged:
        yield basket


def _keyed_stream(stream: Iterator[Basket], index: int):
    """Wrap a basket stream with a (day, stream-index) sort key."""
    for basket in stream:
        yield (basket.day, index, basket)


@dataclass(frozen=True)
class DayBatch:
    """All baskets of one calendar day, in stream order.

    The unit of ingestion for the serving layer
    (:mod:`repro.serve`): a day is atomic — a checkpoint batch never
    splits one, so the resume cursor can count whole days.
    """

    day: int
    baskets: tuple[Basket, ...]

    @property
    def n_baskets(self) -> int:
        return len(self.baskets)


def iter_day_batches(baskets: Iterable[Basket]) -> Iterator[DayBatch]:
    """Group a day-ordered basket stream into :class:`DayBatch` chunks.

    Peak memory is one day's baskets.  Raises
    :class:`~repro.errors.DataError` the moment a basket's day
    regresses — the grouping must not silently reorder what the
    streaming monitor would have rejected.
    """
    current_day: int | None = None
    acc: list[Basket] = []
    for basket in baskets:
        if current_day is None:
            current_day = basket.day
        elif basket.day != current_day:
            if basket.day < current_day:
                raise DataError(
                    f"customer {basket.customer_id}: basket day "
                    f"{basket.day} regresses behind day {current_day}; "
                    f"day batches require a day-ordered stream"
                )
            yield DayBatch(day=current_day, baskets=tuple(acc))
            acc = []
            current_day = basket.day
        acc.append(basket)
    if current_day is not None:
        yield DayBatch(day=current_day, baskets=tuple(acc))
