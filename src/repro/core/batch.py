"""The stability kernel: every customer at every window in numpy.

The one implementation of the paper's stability definition behind
:class:`~repro.core.model.StabilityModel`, built for whole-population
throughput:

* the transaction log is encoded **once** into flat columnar arrays
  (:meth:`~repro.data.transactions.TransactionLog.to_columnar`), then
  windowed and deduplicated into ``(customer, item, window)`` presence
  triples grouped CSR-style by ``(customer, item)`` pair — the
  :class:`~repro.data.population.PopulationFrame` data plane, which
  also feeds the evaluation protocol and the RFM baselines;
* significance and stability for **all customers × all windows** come out
  of a handful of numpy segment operations (:func:`stability_matrix`)
  over window-major ``(n_windows, n_pairs)`` matrices: presence from
  one ascending scatter of pair-major flat indices and one transposing
  copy, presence counts ``c`` accumulated one window at a time in the
  narrowest integer type the grid allows, one ``take`` from the rule's
  ``(c, l)`` table, and ``reduceat`` sums over each window's customer
  segments (masked only where a customer owns no pair);
* every rule is a table over ``0..n_windows`` (:class:`Scoring`): the
  paper's exponential rule is filled by the log-space
  :func:`significance_from_counts`, so each cell holds the bits that
  function gives for its count pair, and any other ``(c, l)`` rule by
  the scalar rule (:func:`significance_table`); an optional item-weight
  column multiplies in;
* the customer axis shards across worker processes (``n_jobs``) for
  multi-core fits, behind the fault-isolating
  :func:`~repro.runtime.executor.run_sharded` protocol: a shard whose
  worker dies (OOM kill, pickling failure, timeout) is retried with
  backoff and finally recomputed serially in-process, so the fit always
  completes with bit-identical results and an attached
  :class:`~repro.runtime.executor.ExecutionReport`;
* a frame memory-mapped from an on-disk slab store
  (:meth:`PopulationFrame.from_slabs`, ``store_path`` set) fits
  **out-of-core**: the serial path runs the kernel one store shard at a
  time so the dense per-shard matrices are the only transient
  allocation, and the sharded path sends workers a slab *reference*
  (store path + customer row range) instead of a pickled frame — each
  worker maps the store itself, keeping fork/spawn payloads and
  per-worker RSS flat as the population grows.

Tasks carry the :class:`Scoring` (the table, the counting scheme, the
weight column), never a rule object.  Agreement with the paper's
equations is pinned by the oracle tests (``tests/core/oracle.py``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.significance import ExponentialSignificance, SignificanceFunction
from repro.data.population import PopulationFrame
from repro.errors import ConfigError
from repro.obs import span, timed_stage
from repro.obs.metrics import STAGE_NORMALIZE, STAGE_SIGNIFICANCE
from repro.runtime.executor import ExecutionReport, run_sharded
from repro.runtime.faults import FaultPlan

__all__ = [
    "PopulationFrame",
    "BatchStability",
    "Scoring",
    "pair_significance",
    "significance_table",
    "stability_matrix",
    "significance_from_counts",
]

#: Saturation cap matching ExponentialSignificance._MAX_LOG.
_MAX_LOG = 700.0


def significance_from_counts(
    counts: np.ndarray, n_prior_windows: int | np.ndarray, alpha: float = 2.0
) -> np.ndarray:
    """Exponential significance from prior-presence counts, vectorised.

    ``counts[i]`` is ``c`` for one item; ``n_prior_windows`` is ``k``
    (scalar or per-element), so ``l = k - c`` and the margin is
    ``c - l = 2c - k``.  The score is computed in log space with the same
    saturation cap as the scalar rule, and is 0 where ``c == 0``.

    It defines the exponential rule's ``(c, l)`` table
    (:meth:`Scoring.of`), which the kernel and the streaming monitor's
    window close read.
    """
    counts = np.asarray(counts, dtype=np.float64)
    margin = 2.0 * counts - np.asarray(n_prior_windows, dtype=np.float64)
    significance = np.exp(np.minimum(margin * math.log(alpha), _MAX_LOG))
    return np.where(counts > 0.0, significance, 0.0)


def significance_table(
    significance: SignificanceFunction, n_windows: int
) -> np.ndarray:
    """``table[c, l]``: the scalar rule's ``S`` for every count pair a
    grid of ``n_windows`` windows can reach (``c + l <= n_windows``, 0
    elsewhere).  Row 0 is 0, the rule's convention for unseen items."""
    size = n_windows + 1
    table = np.zeros((size, size), dtype=np.float64)
    for c in range(size):
        for l in range(size - c):
            table[c, l] = significance(c, l)
    return table


@dataclass(frozen=True, eq=False)
class Scoring:
    """How the kernel turns prior counts into significance, as plain data.

    ``table[c, l]`` holds the rule's ``S`` for every count pair of the
    grid (:meth:`of`), and ``since_first_seen`` selects the counting
    scheme.  ``weight_items`` (ascending) and ``weight_values`` are the
    item-weight column: an item's significance is multiplied by its
    weight, 1 for unlisted items.  Sharded and slab tasks carry this
    object, so a worker needs no rule object.
    """

    table: np.ndarray
    since_first_seen: bool = False
    weight_items: np.ndarray | None = None
    weight_values: np.ndarray | None = None

    @classmethod
    def of(
        cls,
        significance: SignificanceFunction,
        counting: str,
        item_weights: Mapping[int, float] | None,
        n_windows: int,
    ) -> Scoring:
        """The scoring of a rule, counting scheme and item weighting on a
        grid of ``n_windows`` windows.  The exponential rule's table is
        :func:`significance_from_counts` at ``(c, c + l)``, 0 where
        ``c + l > n_windows`` as in :func:`significance_table`."""
        weight_items = weight_values = None
        if item_weights:
            weight_items = np.array(sorted(item_weights), dtype=np.int64)
            weight_values = np.array(
                [float(item_weights[item]) for item in weight_items.tolist()]
            )
        if isinstance(significance, ExponentialSignificance):
            c, l = np.ogrid[: n_windows + 1, : n_windows + 1]
            table = np.where(
                c + l <= n_windows,
                significance_from_counts(c, c + l, significance.alpha),
                0.0,
            )
        else:
            table = significance_table(significance, n_windows)
        return cls(
            table=table,
            since_first_seen=counting == "since-first-seen",
            weight_items=weight_items,
            weight_values=weight_values,
        )

    def pair_weights(self, pair_items: np.ndarray) -> np.ndarray:
        """The weight of each pair's item (1 where none is listed)."""
        assert self.weight_items is not None and self.weight_values is not None
        weights = np.ones(len(pair_items), dtype=np.float64)
        if len(self.weight_items):
            at = np.searchsorted(self.weight_items, pair_items)
            at = np.minimum(at, len(self.weight_items) - 1)
            listed = self.weight_items[at] == pair_items
            weights[listed] = self.weight_values[at[listed]]
        return weights


def pair_significance(
    population: PopulationFrame, scoring: Scoring
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(presence, prior, significance)``, each ``(n_windows, n_pairs)``.

    ``presence[k, j]`` (``bool``) is set where pair ``j``'s item is in
    window ``k``, ``prior[k, j]`` counts the windows before ``k`` that
    hold it (``c``, in the narrowest signed integer that holds
    ``(n_windows + 1) ** 2``), and ``significance[k, j]`` (``float64``)
    is ``S(item, k)`` times the item's weight, read from
    ``scoring.table``.  Under the paper scheme ``l = k - c``; under
    ``"since-first-seen"`` the windows before the item's first purchase
    do not count.

    The matrices are window-major so that every step runs along
    contiguous rows of pairs: the counts accumulate one window at a
    time, and the per-customer sums reduce each row's segments.
    """
    n_pairs, n_windows = population.n_pairs, population.n_windows
    size = n_windows + 1
    if scoring.table.shape != (size, size):
        raise ConfigError(
            f"scoring table {scoring.table.shape} does not fit a grid of "
            f"{n_windows} windows"
        )
    # The narrowest signed integer that holds size ** 2, so the flat
    # table index c * size + l cannot overflow.
    dtype = np.min_scalar_type(-1 - size * size)
    # Triples are sorted by pair, then window, so the pair-major flat
    # indices ascend: one sequential scatter, then one transposing copy.
    flat = np.repeat(
        np.arange(0, n_pairs * n_windows, n_windows, dtype=np.int64),
        np.diff(population.triple_offsets),
    )
    flat += population.triple_window
    by_pair = np.zeros(n_pairs * n_windows, dtype=bool)
    by_pair[flat] = True
    presence = np.ascontiguousarray(by_pair.reshape(n_pairs, n_windows).T)
    prior = np.zeros((n_windows, n_pairs), dtype=dtype)
    for k in range(1, n_windows):
        np.add(prior[k - 1], presence[k - 1], out=prior[k])
    # The flat index c * size + l, with l = k - c, is c * n_windows + k.
    index = prior * n_windows
    index += np.arange(n_windows, dtype=dtype)[:, None]
    if scoring.since_first_seen:
        # l = k - c - first_seen.  Before the first purchase c == 0 and
        # the index is negative: the clamp reads the 0 of cell (0, 0).
        first_seen = population.triple_window[population.triple_offsets[:-1]]
        index -= first_seen.astype(dtype)
        np.maximum(index, 0, out=index)
    significance = scoring.table.take(index)
    if scoring.weight_items is not None:
        significance *= scoring.pair_weights(population.pair_items)
    return presence, prior, significance


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``values`` over contiguous segments ``[offsets[i], offsets[i+1])``
    of its last axis.

    Each segment is reduced on its own, in the order ``np.add.reduce``
    uses, which does not depend on the memory layout, so huge (saturated)
    values in one customer cannot contaminate another's sum — which a
    cumsum-and-subtract scheme would do through catastrophic
    cancellation.  When every segment is non-empty (every customer owns
    a pair) that is ``np.add.reduceat`` itself.  Empty segments sum to 0
    (plain ``reduceat`` would repeat the boundary element instead).
    """
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if len(starts) and nonempty.all():
        return np.add.reduceat(values, starts, axis=-1)
    out = np.zeros(values.shape[:-1] + (len(starts),), dtype=np.float64)
    # reduceat over the non-empty starts only: segments tile the axis, so
    # each non-empty start's successor in the index list is exactly its
    # own end (empty segments collapse to the same boundary), and the last
    # one runs to the end of the array.  Feeding empty starts to reduceat
    # instead would repeat boundary elements and corrupt neighbouring sums.
    if nonempty.any():
        out[..., nonempty] = np.add.reduceat(values, starts[nonempty], axis=-1)
    return out


@dataclass(frozen=True)
class BatchStability:
    """Stability of every customer at every window, plus the evidence sums.

    ``stability``, ``kept_mass`` and ``total_mass`` all have shape
    ``(n_customers, n_windows)``; row order matches
    ``population.customer_ids``.  Stability is NaN where undefined (no
    prior significance mass).

    ``execution`` carries the resilient executor's
    :class:`~repro.runtime.executor.ExecutionReport` for sharded fits
    (``None`` for the serial path, which has no workers to isolate).
    """

    population: PopulationFrame
    stability: np.ndarray
    kept_mass: np.ndarray
    total_mass: np.ndarray
    execution: ExecutionReport | None = None

    @property
    def customer_ids(self) -> np.ndarray:
        return self.population.customer_ids

    def row_of(self, customer_id: int) -> int:
        row = int(np.searchsorted(self.customer_ids, customer_id))
        if row >= len(self.customer_ids) or self.customer_ids[row] != customer_id:
            raise ConfigError(f"customer {customer_id} not in the batch result")
        return row


def _stability_kernel(
    population: PopulationFrame, scoring: Scoring
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense per-shard kernel: ``(stability, kept, total)`` matrices.

    The two stages are individually timed (spans + stage histograms)
    when telemetry is on; inside a sharded fit those spans are recorded
    in the worker and merged back by the resilient executor.
    """
    n_pairs, n_windows = population.n_pairs, population.n_windows
    with timed_stage(
        STAGE_SIGNIFICANCE, pairs=n_pairs, windows=n_windows
    ):
        presence, _prior, significance = pair_significance(population, scoring)
    with timed_stage(STAGE_NORMALIZE, customers=population.n_customers):
        total = _segment_sum(significance, population.pair_offsets)
        significance *= presence  # now the kept significance
        kept = _segment_sum(significance, population.pair_offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            stability = np.where(total > 0.0, kept / total, np.nan)
    # Window-major sums; the fit's matrices are customers x windows.
    return stability.T, kept.T, total.T


def _shard_worker(
    args: tuple[PopulationFrame, Scoring],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    population, scoring = args
    return _stability_kernel(population, scoring)


def _stack_parts(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(stability, kept, total)`` row blocks."""
    return (
        np.vstack([p[0] for p in parts]),
        np.vstack([p[1] for p in parts]),
        np.vstack([p[2] for p in parts]),
    )


def _clip_bounds(
    bounds: list[tuple[int, int]], lo: int, hi: int
) -> list[tuple[int, int]]:
    """The store shard ranges intersected with customer rows ``[lo, hi)``."""
    clipped = [
        (max(b_lo, lo), min(b_hi, hi))
        for b_lo, b_hi in bounds
        if min(b_hi, hi) > max(b_lo, lo)
    ]
    return clipped or ([(lo, hi)] if hi > lo else [])


def _out_of_core_kernel(
    population: PopulationFrame, scoring: Scoring, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel over rows ``[lo, hi)`` of a slab-backed frame, chunked.

    Runs one store shard at a time so the dense significance/presence
    matrices — the fit's dominant allocation — never exceed one shard's
    worth; the memory-mapped columns page in and out underneath.  Row
    blocks concatenate to exactly the single-kernel result because
    customers are independent and :func:`_segment_sum` reduces each
    customer's segment in isolation.
    """
    from repro.data.slabs import open_slab_store

    assert population.store_path is not None
    store = open_slab_store(population.store_path)
    bounds = _clip_bounds(store.shard_bounds(), lo, hi)
    if not bounds:
        return _stability_kernel(population.shard(lo, hi), scoring)
    return _stack_parts(
        [
            _stability_kernel(population.shard(b_lo, b_hi), scoring)
            for b_lo, b_hi in bounds
        ]
    )


def _slab_shard_worker(
    args: tuple[str, int, int, Scoring],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker entry for slab-reference tasks: map the store, fit a range.

    The task is ``(store_path, lo, hi, scoring)`` — a few hundred bytes
    on the wire regardless of population size.  The worker memory-maps
    the store itself and chunks over its shard layout, so worker RSS is
    bounded by one store shard, not the task's whole row range.
    """
    store_path, lo, hi, scoring = args
    from repro.data.slabs import open_slab_store

    frame = open_slab_store(store_path).frame()
    return _out_of_core_kernel(frame, scoring, lo, hi)


def _resolve_n_jobs(n_jobs: int | None) -> int:
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


def _row_bounds(population: PopulationFrame, n_jobs: int) -> list[tuple[int, int]]:
    """``n_jobs`` contiguous, non-empty customer row ranges."""
    bounds = np.linspace(0, population.n_customers, n_jobs + 1).astype(int)
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
        if hi > lo
    ]


def _shard_tasks(
    population: PopulationFrame, scoring: Scoring, n_jobs: int
) -> list[tuple[PopulationFrame, Scoring]]:
    return [
        (population.shard(lo, hi), scoring)
        for lo, hi in _row_bounds(population, n_jobs)
    ]


def _slab_shard_tasks(
    population: PopulationFrame, scoring: Scoring, n_jobs: int
) -> list[tuple[str, int, int, Scoring]]:
    """Slab-reference tasks: ``(store_path, lo, hi, scoring)`` per worker."""
    assert population.store_path is not None
    return [
        (population.store_path, lo, hi, scoring)
        for lo, hi in _row_bounds(population, n_jobs)
    ]


def stability_matrix(
    population: PopulationFrame,
    alpha: float = 2.0,
    n_jobs: int | None = 1,
    retries: int = 2,
    shard_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    scoring: Scoring | None = None,
) -> BatchStability:
    """Stability of all customers at all windows in batched numpy ops.

    ``alpha`` selects the paper configuration; a ``scoring``
    (:meth:`Scoring.of`) replaces it with any other rule, counting scheme
    or item weighting.

    With ``n_jobs > 1`` the customer axis is split into contiguous shards
    computed in worker processes (``n_jobs = -1`` uses every core).
    Sharding is exact: customers are independent, so the result is
    identical to the single-process kernel.

    Sharded fits run under the resilient protocol of
    :func:`~repro.runtime.executor.run_sharded`: a shard whose worker
    dies or exceeds ``shard_timeout`` is retried up to ``retries`` times
    with backoff and finally recomputed serially in-process, so the fit
    always completes with bit-identical results; what the runtime had to
    absorb is attached as ``BatchStability.execution``.  ``fault_plan``
    deterministically injects worker faults for tests
    (:class:`~repro.runtime.faults.FaultPlan`).
    """
    if scoring is None:
        scoring = Scoring.of(
            ExponentialSignificance(alpha), "paper", None, population.n_windows
        )
    n_jobs = _resolve_n_jobs(n_jobs)
    n_customers = population.n_customers
    slab_backed = population.store_path is not None
    with span("fit.batch", customers=n_customers, n_jobs=n_jobs):
        if n_jobs <= 1 or n_customers < 2 * n_jobs:
            if slab_backed:
                stability, kept, total = _out_of_core_kernel(
                    population, scoring, 0, n_customers
                )
            else:
                stability, kept, total = _stability_kernel(population, scoring)
            return BatchStability(population, stability, kept, total)
        if slab_backed:
            parts, report = run_sharded(
                _slab_shard_worker,
                _slab_shard_tasks(population, scoring, n_jobs),
                max_workers=n_jobs,
                retries=retries,
                timeout=shard_timeout,
                fault_plan=fault_plan,
            )
        else:
            shards = _shard_tasks(population, scoring, n_jobs)
            parts, report = run_sharded(
                _shard_worker,
                shards,
                max_workers=len(shards),
                retries=retries,
                timeout=shard_timeout,
                fault_plan=fault_plan,
            )
        stability, kept, total = _stack_parts(parts)
    return BatchStability(population, stability, kept, total, execution=report)
