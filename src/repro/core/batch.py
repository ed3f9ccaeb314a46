"""Population-scale batched stability engine.

The third implementation of the paper's stability definition, built for
whole-population throughput rather than per-customer clarity:

* the transaction log is encoded **once** into flat columnar arrays
  (:meth:`~repro.data.transactions.TransactionLog.to_columnar`), then
  windowed and deduplicated into ``(customer, item, window)`` presence
  triples grouped CSR-style by ``(customer, item)`` pair — the
  :class:`~repro.data.population.PopulationFrame` data plane, which
  since its promotion to :mod:`repro.data` also feeds the evaluation
  protocol and the RFM baselines;
* significance and stability for **all customers × all windows** come out
  of a handful of numpy segment operations
  (:func:`stability_matrix`): per-pair shifted cumulative presence
  counts, the log-space saturated exponential rule (identical to
  :class:`~repro.core.significance.ExponentialSignificance`), and
  empty-segment-safe ``reduceat`` sums over the customer axis;
* scoring one window for the whole population
  (:func:`batch_churn_scores`) slices the cumulative-count math at ``k``
  — no per-customer trajectory recomputation;
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

Only the exponential significance and the ``"paper"`` counting scheme
are supported; anything else stays on the flexible incremental engine.
Exact agreement with the incremental engine is pinned by differential
tests.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.significance import validate_alpha
from repro.core.windowing import WindowGrid
from repro.data.population import PopulationFrame
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError
from repro.obs import span, timed_stage
from repro.obs.metrics import STAGE_NORMALIZE, STAGE_SIGNIFICANCE
from repro.runtime.executor import ExecutionReport, run_sharded
from repro.runtime.faults import FaultPlan

__all__ = [
    "PopulationFrame",
    "BatchStability",
    "stability_matrix",
    "batch_churn_scores",
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

    This is the one significance kernel shared by the batch engine, the
    single-window population scorer and the streaming monitor's window
    close.
    """
    counts = np.asarray(counts, dtype=np.float64)
    margin = 2.0 * counts - np.asarray(n_prior_windows, dtype=np.float64)
    significance = np.exp(np.minimum(margin * math.log(alpha), _MAX_LOG))
    return np.where(counts > 0.0, significance, 0.0)


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``values`` over contiguous row segments ``[offsets[i], offsets[i+1])``.

    Empty segments sum to 0 (plain ``np.add.reduceat`` would repeat the
    boundary row instead).  Each segment is summed independently
    left-to-right, so huge (saturated) values in one customer cannot
    contaminate another's sum — which a cumsum-and-subtract scheme would
    do through catastrophic cancellation.
    """
    starts = offsets[:-1]
    out_shape = (len(starts),) + values.shape[1:]
    out = np.zeros(out_shape, dtype=np.float64)
    # reduceat over the non-empty starts only: segments tile the row axis,
    # so each non-empty start's successor in the index list is exactly its
    # own end (empty segments collapse to the same boundary), and the last
    # one runs to the end of the array.  Feeding empty starts to reduceat
    # instead would repeat boundary rows and corrupt neighbouring sums.
    nonempty = starts < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


@dataclass(frozen=True)
class BatchStability:
    """Stability of every customer at every window, plus the evidence sums.

    ``stability``, ``kept_mass`` and ``total_mass`` all have shape
    ``(n_customers, n_windows)``; row order matches
    ``population.customer_ids``.  Stability is NaN where undefined (no
    prior significance mass), matching the incremental engine.

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
    population: PopulationFrame, alpha: float
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
        presence = np.zeros((n_pairs, n_windows), dtype=np.float64)
        if n_pairs:
            presence[population.pair_rows(), population.triple_window] = 1.0
        prior = np.zeros_like(presence)
        prior[:, 1:] = np.cumsum(presence, axis=1)[:, :-1]
        window_index = np.arange(n_windows, dtype=np.float64)
        significance = significance_from_counts(prior, window_index, alpha)
    with timed_stage(STAGE_NORMALIZE, customers=population.n_customers):
        total = _segment_sum(significance, population.pair_offsets)
        kept = _segment_sum(significance * presence, population.pair_offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            stability = np.where(total > 0.0, kept / total, np.nan)
    return stability, kept, total


def _shard_worker(
    args: tuple[PopulationFrame, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    population, alpha = args
    return _stability_kernel(population, alpha)


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
    population: PopulationFrame, alpha: float, lo: int, hi: int
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
        return _stability_kernel(population.shard(lo, hi), alpha)
    return _stack_parts(
        [
            _stability_kernel(population.shard(b_lo, b_hi), alpha)
            for b_lo, b_hi in bounds
        ]
    )


def _slab_shard_worker(
    args: tuple[str, int, int, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker entry for slab-reference tasks: map the store, fit a range.

    The task is ``(store_path, lo, hi, alpha)`` — a few hundred bytes on
    the wire regardless of population size.  The worker memory-maps the
    store itself and chunks over its shard layout, so worker RSS is
    bounded by one store shard, not the task's whole row range.
    """
    store_path, lo, hi, alpha = args
    from repro.data.slabs import open_slab_store

    frame = open_slab_store(store_path).frame()
    return _out_of_core_kernel(frame, alpha, lo, hi)


def _resolve_n_jobs(n_jobs: int | None) -> int:
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


def _shard_tasks(
    population: PopulationFrame, alpha: float, n_jobs: int
) -> list[tuple[PopulationFrame, float]]:
    bounds = np.linspace(0, population.n_customers, n_jobs + 1).astype(int)
    return [
        (population.shard(int(lo), int(hi)), alpha)
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
        if hi > lo
    ]


def _slab_shard_tasks(
    population: PopulationFrame, alpha: float, n_jobs: int
) -> list[tuple[str, int, int, float]]:
    """Slab-reference tasks: ``(store_path, lo, hi, alpha)`` per worker."""
    assert population.store_path is not None
    bounds = np.linspace(0, population.n_customers, n_jobs + 1).astype(int)
    return [
        (population.store_path, int(lo), int(hi), alpha)
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
        if hi > lo
    ]


def stability_matrix(
    population: PopulationFrame,
    alpha: float = 2.0,
    n_jobs: int | None = 1,
    retries: int = 2,
    shard_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
) -> BatchStability:
    """Stability of all customers at all windows in batched numpy ops.

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
    validate_alpha(alpha)
    n_jobs = _resolve_n_jobs(n_jobs)
    n_customers = population.n_customers
    slab_backed = population.store_path is not None
    with span("fit.batch", customers=n_customers, n_jobs=n_jobs):
        if n_jobs <= 1 or n_customers < 2 * n_jobs:
            if slab_backed:
                stability, kept, total = _out_of_core_kernel(
                    population, alpha, 0, n_customers
                )
            else:
                stability, kept, total = _stability_kernel(population, alpha)
            return BatchStability(population, stability, kept, total)
        if slab_backed:
            parts, report = run_sharded(
                _slab_shard_worker,
                _slab_shard_tasks(population, alpha, n_jobs),
                max_workers=n_jobs,
                retries=retries,
                timeout=shard_timeout,
                fault_plan=fault_plan,
            )
        else:
            shards = _shard_tasks(population, alpha, n_jobs)
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


def _stability_matrix_bare(
    population: PopulationFrame, alpha: float = 2.0, n_jobs: int = 2
) -> BatchStability:
    """The pre-resilience sharded fit: bare ``ProcessPoolExecutor.map``.

    Kept (private) as the benchmarking baseline the resilient executor's
    fault-free overhead is measured against; one dead worker aborts the
    whole fit here.
    """
    validate_alpha(alpha)
    shards = _shard_tasks(population, alpha, _resolve_n_jobs(n_jobs))
    with ProcessPoolExecutor(max_workers=len(shards)) as executor:
        parts = list(executor.map(_shard_worker, shards))
    stability = np.vstack([p[0] for p in parts])
    kept = np.vstack([p[1] for p in parts])
    total = np.vstack([p[2] for p in parts])
    return BatchStability(population, stability, kept, total)


def batch_churn_scores(
    log: TransactionLog,
    grid: WindowGrid,
    window_index: int,
    customers: Iterable[int] | None = None,
    alpha: float = 2.0,
) -> dict[int, float]:
    """Churn scores (``1 - stability``) for a population at one window.

    Unlike a trajectory fit, this slices the cumulative-count math at
    ``window_index``: only presences strictly before ``k`` feed the
    significance counts and only presence *at* ``k`` feeds the kept mass,
    so the cost is one pass over the triples regardless of how many
    windows the grid has.  Undefined stability maps to the neutral 0.5.
    """
    if not 0 <= window_index < grid.n_windows:
        raise ConfigError(
            f"window index {window_index} out of range [0, {grid.n_windows})"
        )
    validate_alpha(alpha)
    population = PopulationFrame.from_log(log, grid, customers)
    pair_rows = population.pair_rows()
    before = population.triple_window < window_index
    prior = np.bincount(
        pair_rows[before], minlength=population.n_pairs
    ).astype(np.float64)
    present = np.zeros(population.n_pairs, dtype=np.float64)
    present[pair_rows[population.triple_window == window_index]] = 1.0
    significance = significance_from_counts(prior, window_index, alpha)
    total = _segment_sum(significance, population.pair_offsets)
    kept = _segment_sum(significance * present, population.pair_offsets)
    with np.errstate(invalid="ignore", divide="ignore"):
        churn = np.where(total > 0.0, 1.0 - kept / total, 0.5)
    return {
        int(customer_id): float(score)
        for customer_id, score in zip(population.customer_ids, churn, strict=True)
    }
