"""Baskets: single timestamped receipts.

A basket corresponds to one receipt in the paper's dataset: a customer id,
a timestamp, the set of items bought and the monetary value of the receipt.
Item ids may be product ids or segment ids depending on the abstraction
level of the log holding the basket; the stability model is agnostic, it
only requires that the ids are consistent within a log.

A :class:`DayBatch` holds all baskets of one calendar day as columns: the
unit the recorded stream (:mod:`repro.synth.stream`) stores and serving
(:mod:`repro.serve`) ingests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import DataError

__all__ = ["Basket", "DayBatch", "iter_day_batches", "day_columns"]


@dataclass(frozen=True, slots=True)
class Basket:
    """One receipt: a customer's purchase at a point in time.

    Attributes
    ----------
    customer_id:
        Identifier of the purchasing customer.
    day:
        Integer day offset from the study start (see
        :class:`~repro.data.calendar.StudyCalendar`).
    items:
        Set of item ids bought in this receipt.  Quantities are not
        modelled (the stability model is set-based).
    monetary:
        Total monetary value of the receipt, used by the RFM baseline.
    """

    customer_id: int
    day: int
    items: frozenset[int]
    monetary: float = 0.0

    def __post_init__(self) -> None:
        if self.day < 0:
            raise DataError(f"basket day offset must be >= 0, got {self.day}")
        if self.monetary < 0:
            raise DataError(f"basket monetary value must be >= 0, got {self.monetary}")
        if not isinstance(self.items, frozenset):
            object.__setattr__(self, "items", frozenset(self.items))

    @classmethod
    def of(
        cls,
        customer_id: int,
        day: int,
        items: Iterable[int],
        monetary: float = 0.0,
    ) -> Basket:
        """Convenience constructor accepting any iterable of item ids."""
        return cls(
            customer_id=customer_id,
            day=day,
            items=frozenset(items),
            monetary=monetary,
        )

    @property
    def size(self) -> int:
        """Number of distinct items in the basket."""
        return len(self.items)

    def abstracted(self, mapping) -> Basket:
        """Return a copy with each item id mapped through ``mapping``.

        ``mapping`` is a callable ``item_id -> item_id`` (typically
        product id -> segment id).  Distinct products mapping to the same
        segment collapse into one item, matching the paper's abstraction.
        """
        return Basket(
            customer_id=self.customer_id,
            day=self.day,
            items=frozenset(mapping(item) for item in self.items),
            monetary=self.monetary,
        )


@dataclass(frozen=True, eq=False)
class DayBatch:
    """All baskets of one calendar day, in stream order, as columns.

    The unit of ingestion for the serving layer
    (:mod:`repro.serve`): a day is atomic — a checkpoint batch never
    splits one, so the resume cursor can point just past a whole day.
    Basket ``j`` is customer ``customers[j]`` buying
    ``items[item_offsets[j]:item_offsets[j + 1]]`` for ``amounts[j]``
    (int64 columns, ``amounts`` float64).  :attr:`baskets` builds the
    :class:`Basket` objects from the columns on each access.

    ``end`` is the byte offset just past the day's line in the recorded
    stream it was read from (:func:`~repro.synth.stream.replay_stream`
    resumes there), ``-1`` for a batch not read from a file.  Equality
    compares the day and the columns, not ``end``.
    """

    day: int
    customers: np.ndarray
    item_offsets: np.ndarray
    items: np.ndarray
    amounts: np.ndarray
    end: int = -1

    @classmethod
    def of(cls, day: int, baskets: Iterable[Basket], end: int = -1) -> DayBatch:
        """The columns of ``baskets`` (all dated ``day``), each basket's
        items ascending."""
        baskets = tuple(baskets)
        items = [sorted(basket.items) for basket in baskets]
        return cls(
            day=day,
            customers=np.array([b.customer_id for b in baskets], np.int64),
            item_offsets=np.cumsum([0, *map(len, items)], dtype=np.int64),
            items=np.array([item for own in items for item in own], np.int64),
            amounts=np.array([b.monetary for b in baskets], np.float64),
            end=end,
        )

    @property
    def n_baskets(self) -> int:
        return len(self.customers)

    @property
    def baskets(self) -> tuple[Basket, ...]:
        """The day's baskets, built from the columns."""
        offsets = self.item_offsets.tolist()
        items = self.items.tolist()
        return tuple(
            Basket(customer_id, self.day, frozenset(items[lo:hi]), monetary)
            for customer_id, lo, hi, monetary in zip(
                self.customers.tolist(),
                offsets,
                offsets[1:],
                self.amounts.tolist(),
                strict=False,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DayBatch):
            return NotImplemented
        return self.day == other.day and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("customers", "item_offsets", "items", "amounts")
        )

    __hash__ = None  # type: ignore[assignment]


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
            yield DayBatch.of(current_day, acc)
            acc = []
            current_day = basket.day
        acc.append(basket)
    if current_day is not None:
        yield DayBatch.of(current_day, acc)


def day_columns(
    batches: Sequence[DayBatch],
) -> tuple[list[int], list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Consecutive day batches as one set of flat columns, the form
    :meth:`~repro.core.streaming.StabilityMonitor.ingest_days` takes:
    ``(days, day_ends, customers, sizes, items)``, day ``days[i]``
    holding baskets ``day_ends[i - 1]:day_ends[i]`` and basket ``j``
    buying the next ``sizes[j]`` of ``items``."""
    return (
        [batch.day for batch in batches],
        np.cumsum([batch.n_baskets for batch in batches], dtype=np.int64).tolist(),
        np.concatenate([batch.customers for batch in batches]),
        np.concatenate([np.diff(batch.item_offsets) for batch in batches]),
        np.concatenate([batch.items for batch in batches]),
    )
