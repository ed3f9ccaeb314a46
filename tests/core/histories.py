"""One customer's history, stated per window, fitted through the model.

Unit tests state a history as one item set per window.
:func:`model_of` buys each window's set in one basket on the window's
first day, on a calendar of one-month windows, and fits
:class:`~repro.core.model.StabilityModel` on the log;
:func:`trajectory_of` returns the customer's trajectory.  A customer
who buys nothing at all gets one empty basket, so they are still fitted.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterable

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.significance import SignificanceFunction
from repro.core.stability import StabilityTrajectory
from repro.data import Basket, StudyCalendar, TransactionLog

START = _dt.date(2000, 1, 1)


def history_log(
    item_sets: list[Iterable[int]], customer_id: int = 1
) -> tuple[StudyCalendar, TransactionLog]:
    """A calendar of ``len(item_sets)`` months and the log buying each
    month's items on its first day."""
    calendar = StudyCalendar(start=START, n_months=len(item_sets))
    log = TransactionLog()
    for month, items in enumerate(item_sets):
        if items:
            day = calendar.month_start_day(month)
            log.add(Basket.of(customer_id=customer_id, day=day, items=items))
    if log.n_baskets == 0:
        log.add(Basket.of(customer_id=customer_id, day=0, items=[]))
    return calendar, log


def model_of(
    item_sets: list[Iterable[int]],
    significance: SignificanceFunction | None = None,
    counting: str = "paper",
    item_weights: dict[int, float] | None = None,
    customer_id: int = 1,
) -> StabilityModel:
    """The model fitted on one customer's per-window history."""
    calendar, log = history_log(item_sets, customer_id)
    return StabilityModel(
        calendar,
        significance=significance,
        item_weights=item_weights,
        config=ExperimentConfig(window_months=1, counting=counting),
    ).fit(log)


def trajectory_of(
    item_sets: list[Iterable[int]],
    significance: SignificanceFunction | None = None,
    counting: str = "paper",
    item_weights: dict[int, float] | None = None,
    customer_id: int = 1,
) -> StabilityTrajectory:
    """The trajectory of one customer's per-window history."""
    model = model_of(item_sets, significance, counting, item_weights, customer_id)
    return model.trajectory(customer_id)
