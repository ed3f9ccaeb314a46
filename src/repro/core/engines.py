"""The model's link to the kernel: the fit entry and per-customer records.

:class:`~repro.core.model.StabilityModel` fits through
:func:`stability_matrix` (the kernel of :mod:`repro.core.batch`, looked
up on this module at call time so tracing can wrap it) and builds one
customer's :class:`~repro.core.stability.StabilityTrajectory` on demand
with :func:`customer_trajectory`: the windows and the full per-item
significance snapshots come from the frame's columns, the stability and
the evidence sums from the fit's matrices.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import (
    BatchStability,
    Scoring,
    pair_significance,
    stability_matrix,
)
from repro.core.stability import StabilityTrajectory, WindowStability
from repro.core.windowing import Window
from repro.data.population import PopulationFrame

__all__ = ["customer_trajectory", "frame_windowed_history", "stability_matrix"]


def frame_windowed_history(frame: PopulationFrame, row: int) -> list[Window]:
    """One customer's windowed database ``D_i^w`` rebuilt from the columns.

    The log-free equivalent of :func:`~repro.core.windowing.windowed_history`:
    per-window item sets come from the presence triples, basket counts
    and monetary totals from the basket columns.  The basket columns are
    day-sorted with ties in history order, so the sequential monetary
    accumulation reproduces the log path's float-for-float.
    """
    grid = frame.grid
    item_sets = frame.window_items(row)
    lo, hi = int(frame.basket_offsets[row]), int(frame.basket_offsets[row + 1])
    days = frame.basket_days[lo:hi]
    monetary = frame.basket_monetary[lo:hi]
    windows: list[Window] = []
    for k in range(grid.n_windows):
        begin, end = grid.bounds(k)
        b_lo = int(np.searchsorted(days, begin, side="left"))
        b_hi = int(np.searchsorted(days, end, side="left"))
        total = 0.0
        for value in monetary[b_lo:b_hi]:
            total += float(value)
        windows.append(
            Window(
                index=k,
                begin_day=begin,
                end_day=end,
                items=item_sets[k],
                n_baskets=b_hi - b_lo,
                monetary=total,
            )
        )
    return windows


def customer_trajectory(
    fit: BatchStability, row: int, scoring: Scoring
) -> StabilityTrajectory:
    """The trajectory of the customer in ``row`` of a fit, built from the
    columns.

    Each record's significance snapshot holds ``S(p, k)`` (times the
    item's weight) for every item bought before window ``k``, computed by
    the kernel's own :func:`~repro.core.batch.pair_significance` over the
    customer's pairs.
    """
    frame = fit.population
    windows = frame_windowed_history(frame, row)
    customer = frame.shard(row, row + 1)
    _presence, prior, significance = pair_significance(customer, scoring)
    items = customer.pair_items.tolist()
    records = []
    for k, window in enumerate(windows):
        seen = np.flatnonzero(prior[:, k] > 0.0).tolist()
        column = significance[:, k].tolist()
        records.append(
            WindowStability(
                window=window,
                stability=float(fit.stability[row, k]),
                kept_mass=float(fit.kept_mass[row, k]),
                total_mass=float(fit.total_mass[row, k]),
                significances={items[j]: column[j] for j in seen},
            )
        )
    return StabilityTrajectory(
        customer_id=int(frame.customer_ids[row]), records=tuple(records)
    )
