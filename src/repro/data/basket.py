"""Baskets: single timestamped receipts.

A basket corresponds to one receipt in the paper's dataset: a customer id,
a timestamp, the set of items bought and the monetary value of the receipt.
Item ids may be product ids or segment ids depending on the abstraction
level of the log holding the basket; the stability model is agnostic, it
only requires that the ids are consistent within a log.

A :class:`DayBatch` holds all baskets of one calendar day: the unit the
recorded stream (:mod:`repro.synth.stream`) stores and serving
(:mod:`repro.serve`) ingests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import DataError

__all__ = ["Basket", "DayBatch", "iter_day_batches"]


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


@dataclass(frozen=True)
class DayBatch:
    """All baskets of one calendar day, in stream order.

    The unit of ingestion for the serving layer
    (:mod:`repro.serve`): a day is atomic — a checkpoint batch never
    splits one, so the resume cursor can point just past a whole day.

    ``end`` is the byte offset just past the day's line in the recorded
    stream it was read from (:func:`~repro.synth.stream.replay_stream`
    resumes there), ``-1`` for a batch not read from a file.  It takes
    no part in equality.
    """

    day: int
    baskets: tuple[Basket, ...]
    end: int = field(default=-1, compare=False)

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
