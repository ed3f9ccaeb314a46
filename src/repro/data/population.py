"""The columnar data plane: :class:`PopulationFrame`.

One :class:`PopulationFrame` is the whole population's purchase history,
encoded **once** from a :class:`~repro.data.transactions.TransactionLog`
against a shared :class:`~repro.core.windowing.WindowGrid`, and then
passed by reference through every downstream layer:

* the stability engines (:mod:`repro.core.engines`) read the windowed
  ``(customer, item, window)`` presence triples;
* the RFM baselines (:mod:`repro.baselines.rfm`) read the basket-level
  day/monetary columns;
* the evaluation protocol (:mod:`repro.eval.protocol`) builds the frame
  once per dataset and hands it to both.

Two CSR levels index the presence triples (sorted by customer, then
item, then window): ``pair_offsets`` groups customers over the
``(customer, item)`` pair axis, and ``triple_offsets`` groups pairs over
the triple axis.  A third CSR level (``basket_offsets``) indexes the raw
receipts per customer, in history (day) order, **without** the grid
filter — recency/monetary features look at the full observed history up
to a decision point, including purchases before the grid starts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.data.transactions import TransactionLog
from repro.errors import DataError
from repro.obs import timed_stage
from repro.obs.metrics import STAGE_CSR_BUILD

if TYPE_CHECKING:  # type-only: the data layer must not import repro.core
    # at runtime (repro.core.batch imports this module)
    from repro.core.windowing import WindowGrid
    from repro.data.slabs import SlabStore

__all__ = ["PopulationFrame", "range_segment_sums", "csr_from_triples"]


def range_segment_sums(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Sum ``values[starts[i]:ends[i]]`` for each row range, empty → 0.

    All ranges must be disjoint and ascending (``starts <= ends`` and
    ``ends[i] <= starts[i+1]``), which CSR sub-ranges always satisfy.
    Each range is summed with the same ``np.add.reduceat`` kernel
    regardless of where it sits in ``values``, so the result is
    bit-identical to summing a contiguous copy of the range — the
    property the RFM differential tests pin.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    out = np.zeros(len(starts), dtype=np.float64)
    rows = np.flatnonzero(starts < ends)
    if not len(rows):
        return out
    # reduceat over interleaved [start, end) pairs: even slots hold the
    # range sums, odd slots hold the (discarded) gap sums.  A trailing
    # end == len(values) is not a valid reduceat index; dropping it makes
    # the final (even) slot run to the end of the array, which sums the
    # same range.
    pairs = np.empty(2 * len(rows), dtype=np.int64)
    pairs[0::2] = starts[rows]
    pairs[1::2] = ends[rows]
    if pairs[-1] == len(values):
        pairs = pairs[:-1]
    out[rows] = np.add.reduceat(values, pairs)[0::2]
    return out


def csr_from_triples(
    cust: np.ndarray,
    items: np.ndarray,
    window: np.ndarray,
    n_customers: int,
    n_windows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort + dedupe ``(customer, item, window)`` presence triples.

    ``cust`` holds customer *rows* in ``[0, n_customers)``; the inputs
    may contain duplicates in any order.  Returns the two CSR levels of
    :class:`PopulationFrame` — ``(pair_offsets, pair_items,
    triple_offsets, triple_window)`` — exactly as :meth:`from_log`
    builds them, which is what lets the out-of-core slab builder
    (:mod:`repro.data.slabs`) produce bit-identical frames shard by
    shard.

    When the ids fit, each triple packs into one int64 so a single sort
    does the job; otherwise a 3-key lexsort takes over.  Both paths
    yield the same sorted unique triples.
    """
    if len(cust):
        item_span = int(items.max()) + 1 if items.min() >= 0 else 0
        span = n_customers * item_span * n_windows
        if item_span and span < 2**62:
            key = (cust * item_span + items) * n_windows + window
            if span <= max(1 << 22, 2 * len(key)) and span <= 1 << 25:
                # Dense key space: a presence bitmap + flatnonzero
                # yields the sorted unique keys in O(rows + span),
                # skipping the comparison sort inside np.unique.
                flags = np.zeros(span, dtype=bool)
                flags[key] = True
                key = np.flatnonzero(flags)
            else:
                key = np.unique(key)
            window = key % n_windows
            pair_key = key // n_windows
            cust, items = pair_key // item_span, pair_key % item_span
        else:
            order = np.lexsort((window, items, cust))
            cust, items, window = cust[order], items[order], window[order]
            keep = np.r_[
                True,
                (cust[1:] != cust[:-1])
                | (items[1:] != items[:-1])
                | (window[1:] != window[:-1]),
            ]
            cust, items, window = cust[keep], items[keep], window[keep]
        new_pair = np.r_[
            True, (cust[1:] != cust[:-1]) | (items[1:] != items[:-1])
        ]
        pair_starts = np.flatnonzero(new_pair)
    else:
        pair_starts = np.empty(0, dtype=np.int64)
    triple_offsets = np.r_[pair_starts, len(window)].astype(np.int64)
    pair_items = items[pair_starts]
    pair_cust = cust[pair_starts]
    pair_offsets = np.searchsorted(
        pair_cust, np.arange(n_customers + 1, dtype=np.int64)
    ).astype(np.int64)
    return pair_offsets, pair_items, triple_offsets, window


@dataclass(frozen=True)
class PopulationFrame:
    """All customers' history as flat columnar arrays over one grid.

    Attributes
    ----------
    grid:
        The shared window grid the presence triples are indexed on.
    customer_ids:
        Distinct customer ids, ascending, shape ``(C,)``.
    basket_offsets:
        Shape ``(C + 1,)``: customer ``i``'s receipts occupy rows
        ``basket_offsets[i]:basket_offsets[i+1]`` of the basket columns.
    basket_days:
        Day offset of each receipt (non-decreasing per customer), shape
        ``(B,)``.  Off-grid receipts are retained — feature extractors
        that look back past the grid start need them.
    basket_monetary:
        Monetary value of each receipt, shape ``(B,)``.
    pair_offsets:
        Shape ``(C + 1,)``: customer ``i`` owns pairs
        ``pair_offsets[i]:pair_offsets[i+1]``.
    pair_items:
        Shape ``(P,)``: raw item id of each ``(customer, item)`` pair.
    triple_offsets:
        Shape ``(P + 1,)``: pair ``j`` is present in windows
        ``triple_window[triple_offsets[j]:triple_offsets[j+1]]``
        (strictly increasing within a pair).
    triple_window:
        Shape ``(T,)``: window index of each presence triple.
    item_vocab:
        Sorted distinct item ids across the population.
    log:
        The source transaction log, kept by reference so a model fitted
        on the frame can restrict it to a customer subset without a
        second argument.  Dropped by :meth:`shard` so worker-process
        payloads stay columnar.
    store_path:
        Directory of the slab store this frame is memory-mapped from,
        or ``None`` for in-RAM frames.  Sharded fits use it to hand
        workers a slab reference (path + row range) instead of a
        pickled frame.
    """

    grid: WindowGrid
    customer_ids: np.ndarray
    basket_offsets: np.ndarray
    basket_days: np.ndarray
    basket_monetary: np.ndarray
    pair_offsets: np.ndarray
    pair_items: np.ndarray
    triple_offsets: np.ndarray
    triple_window: np.ndarray
    item_vocab: np.ndarray
    log: TransactionLog | None = field(default=None, repr=False, compare=False)
    store_path: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(
        cls,
        log: TransactionLog,
        grid: WindowGrid,
        customers: Iterable[int] | None = None,
    ) -> PopulationFrame:
        """Encode a log (or a customer subset) in one columnar pass.

        Baskets outside the grid are dropped from the presence triples
        (same rule as :func:`~repro.core.windowing.windowed_history`)
        but kept in the basket columns; item sets are deduplicated per
        ``(customer, window)``.
        """
        with timed_stage(STAGE_CSR_BUILD, windows=grid.n_windows):
            columnar = log.to_columnar(customers)
            boundaries = np.asarray(grid.boundaries, dtype=np.int64)
            n_windows = grid.n_windows
            window = np.searchsorted(boundaries, columnar.days, side="right") - 1
            valid = (columnar.days >= boundaries[0]) & (columnar.days < boundaries[-1])
            cust = columnar.customer_rows()[valid]
            window = window[valid]
            items = columnar.items[valid]
            pair_offsets, pair_items, triple_offsets, triple_window = (
                csr_from_triples(
                    cust, items, window, columnar.n_customers, n_windows
                )
            )
        return cls(
            grid=grid,
            customer_ids=columnar.customer_ids,
            basket_offsets=columnar.basket_offsets,
            basket_days=columnar.basket_days,
            basket_monetary=columnar.basket_monetary,
            pair_offsets=pair_offsets,
            pair_items=pair_items,
            triple_offsets=triple_offsets,
            triple_window=triple_window,
            item_vocab=np.unique(pair_items),
            log=log,
        )

    @classmethod
    def from_slabs(cls, store: SlabStore | str | Path) -> PopulationFrame:
        """Memory-mapped construction from an on-disk slab store.

        Every CSR level is an ``np.memmap`` view over the store's column
        files: nothing is materialised in RAM until a kernel actually
        touches the pages, and :meth:`shard` slices stay zero-copy views
        of the mapping.  The resulting frame carries no source log
        (engines reconstruct per-window histories from the columns) and
        remembers its ``store_path`` so sharded fits can hand workers a
        slab *reference* instead of a pickled frame.

        Raises
        ------
        SlabStoreError
            If the store is missing, torn, stale or version-incompatible
            (see :func:`repro.data.slabs.open_slab_store`).
        """
        from repro.data.slabs import SlabStore, open_slab_store

        if not isinstance(store, SlabStore):
            store = open_slab_store(store)
        return cls(
            grid=store.grid(),
            customer_ids=store.column("customer_ids"),
            basket_offsets=store.column("basket_offsets"),
            basket_days=store.column("basket_days"),
            basket_monetary=store.column("basket_monetary"),
            pair_offsets=store.column("pair_offsets"),
            pair_items=store.column("pair_items"),
            triple_offsets=store.column("triple_offsets"),
            triple_window=store.column("triple_window"),
            item_vocab=store.column("item_vocab"),
            store_path=str(store.directory),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_customers(self) -> int:
        return len(self.customer_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_items)

    @property
    def n_windows(self) -> int:
        return self.grid.n_windows

    @property
    def n_baskets(self) -> int:
        return len(self.basket_days)

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------
    def row_of(self, customer_id: int) -> int:
        """Row index of one customer.

        Raises
        ------
        DataError
            If the customer is not in the frame.
        """
        row = int(np.searchsorted(self.customer_ids, customer_id))
        if row >= len(self.customer_ids) or self.customer_ids[row] != customer_id:
            raise DataError(f"customer {customer_id} not in the population frame")
        return row

    def rows_of(self, customers: Sequence[int]) -> np.ndarray:
        """Row indices of many customers, in the given order.

        Raises
        ------
        DataError
            If any requested customer is not in the frame.
        """
        ids = np.asarray(list(customers), dtype=np.int64)
        rows = np.searchsorted(self.customer_ids, ids)
        rows = np.minimum(rows, len(self.customer_ids) - 1)
        bad = np.flatnonzero(self.customer_ids[rows] != ids)
        if len(bad):
            raise DataError(
                f"customer {int(ids[bad[0]])} not in the population frame"
            )
        return rows

    def __contains__(self, customer_id: object) -> bool:
        if not isinstance(customer_id, (int, np.integer)):
            return False
        row = int(np.searchsorted(self.customer_ids, customer_id))
        return (
            row < len(self.customer_ids) and self.customer_ids[row] == customer_id
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def pair_rows(self) -> np.ndarray:
        """Pair index owning each presence triple."""
        return np.repeat(
            np.arange(self.n_pairs, dtype=np.int64), np.diff(self.triple_offsets)
        )

    def window_items(self, customer_row: int) -> list[frozenset[int]]:
        """Reconstruct one customer's per-window item sets ``u_k``."""
        sets: list[set[int]] = [set() for _ in range(self.n_windows)]
        lo, hi = self.pair_offsets[customer_row], self.pair_offsets[customer_row + 1]
        for pair in range(lo, hi):
            item = int(self.pair_items[pair])
            for t in range(self.triple_offsets[pair], self.triple_offsets[pair + 1]):
                sets[self.triple_window[t]].add(item)
        return [frozenset(s) for s in sets]

    def shard(self, lo: int, hi: int) -> PopulationFrame:
        """The sub-population of customer rows ``[lo, hi)`` (rebased CSR).

        The source-log reference is dropped: shards exist to cross
        process boundaries and must stay pure columnar data.  On a
        memory-mapped frame every slice below stays a zero-copy view of
        the mapping (minus the small rebased offset arrays).

        Raises
        ------
        DataError
            If the range is not within ``0 <= lo <= hi <= n_customers``;
            the message names the offending range.
        """
        if not 0 <= lo <= hi <= self.n_customers:
            raise DataError(
                f"shard range [{lo}, {hi}) out of bounds for a frame of "
                f"{self.n_customers} customers"
            )
        pair_lo, pair_hi = self.pair_offsets[lo], self.pair_offsets[hi]
        triple_lo = self.triple_offsets[pair_lo]
        triple_hi = self.triple_offsets[pair_hi]
        basket_lo, basket_hi = self.basket_offsets[lo], self.basket_offsets[hi]
        return PopulationFrame(
            grid=self.grid,
            customer_ids=self.customer_ids[lo:hi],
            basket_offsets=self.basket_offsets[lo : hi + 1] - basket_lo,
            basket_days=self.basket_days[basket_lo:basket_hi],
            basket_monetary=self.basket_monetary[basket_lo:basket_hi],
            pair_offsets=self.pair_offsets[lo : hi + 1] - pair_lo,
            pair_items=self.pair_items[pair_lo:pair_hi],
            triple_offsets=self.triple_offsets[pair_lo : pair_hi + 1] - triple_lo,
            triple_window=self.triple_window[triple_lo:triple_hi],
            item_vocab=self.item_vocab,
        )

    # ------------------------------------------------------------------
    # Basket-column kernels (shared by RFM-style feature extractors)
    # ------------------------------------------------------------------
    def baskets_before(self, day: int) -> np.ndarray:
        """Per-customer count of receipts strictly before ``day``.

        Receipt days are sorted within each customer, so the counts also
        locate the end of each customer's observed prefix:
        ``basket_offsets[:-1] + counts``.
        """
        mask = np.r_[0, np.cumsum(self.basket_days < day)]
        return (mask[self.basket_offsets[1:]] - mask[self.basket_offsets[:-1]]).astype(
            np.int64
        )
