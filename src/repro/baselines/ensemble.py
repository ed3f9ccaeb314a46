"""Rank-average ensemble of churn scorers.

The robustness study (DESIGN.md A7) shows the stability model and the
RFM model read *complementary* signals — basket content vs shopping
volume — and each dominates under a different churn mechanism.  The
natural follow-up is to combine them: :class:`RankAverageEnsemble`
averages the *rank-normalised* scores of its members, which is scale-free
(a logistic probability and a ``1 - stability`` score are not comparable
directly) and robust to any monotone miscalibration of a member.

The ensemble implements the same protocol duck type as the trainable
baselines (``fit`` / ``churn_scores`` / ``n_windows`` / ``window_month``),
so :class:`~repro.eval.campaign.compare_models`-style harnesses can drive
it unchanged.  Members may be:

* *trainable scorers* (RFM-like: ``fit(log, cohorts, window, customers)``
  then ``churn_scores(log, customers, window)``), or
* a fitted :class:`~repro.core.model.StabilityModel` wrapped by
  :class:`StabilityMember`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.model import StabilityModel
from repro.data.calendar import StudyCalendar
from repro.data.cohorts import CohortLabels
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError

__all__ = ["StabilityMember", "RankAverageEnsemble", "rank_normalise"]


def rank_normalise(scores: dict[int, float]) -> dict[int, float]:
    """Map scores to midrank-based quantiles in [0, 1].

    Ties receive their midrank, so the transform is deterministic and
    order-preserving; a single customer maps to 0.5.
    """
    if not scores:
        return {}
    ids = sorted(scores)
    values = np.asarray([scores[c] for c in ids], dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    sorted_values = values[order]
    while i < len(sorted_values):
        j = i
        while j + 1 < len(sorted_values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j)
        i = j + 1
    if len(values) == 1:
        quantiles = np.asarray([0.5])
    else:
        quantiles = ranks / (len(values) - 1)
    return {c: float(q) for c, q in zip(ids, quantiles, strict=True)}


class StabilityMember:
    """Adapts a :class:`StabilityModel` to the trainable-scorer protocol.

    ``fit`` (re)fits the stability model on the union of train and, when
    later scored, test customers — the model is unsupervised, so seeing
    ids at fit time leaks nothing.
    """

    name = "stability"

    def __init__(self, model: StabilityModel) -> None:
        self.model = model

    @property
    def n_windows(self) -> int:
        return self.model.n_windows

    def window_month(self, window_index: int) -> int:
        return self.model.window_month(window_index)

    def fit(
        self,
        log: TransactionLog,
        cohorts: CohortLabels,
        window_index: int,
        customers: Iterable[int] | None = None,
    ) -> StabilityMember:
        del cohorts, window_index, customers  # unsupervised: nothing to learn
        if not self.model.is_fitted:
            self.model.fit(log)
        return self

    def churn_scores(
        self,
        log: TransactionLog,
        customers: Iterable[int],
        window_index: int | None = None,
    ) -> dict[int, float]:
        ids = list(customers)
        fitted = set(self.model.customers())
        if not fitted.issuperset(ids):
            # Extend the fit to cover newly requested customers.
            self.model.fit(log, sorted(fitted.union(ids)))
        index = window_index if window_index is not None else self.model.n_windows - 1
        return self.model.churn_scores(index, ids)


class RankAverageEnsemble:
    """Average of rank-normalised member scores.

    Parameters
    ----------
    calendar:
        Study calendar (for the shared grid duck type).
    members:
        The scorers to combine; at least two.
    window_months:
        Window span; must match the members' grids.
    weights:
        Optional per-member weights (default: uniform).
    """

    name = "ensemble"

    def __init__(
        self,
        calendar: StudyCalendar,
        members: Sequence,
        window_months: int = 2,
        weights: Sequence[float] | None = None,
    ) -> None:
        if len(members) < 2:
            raise ConfigError("an ensemble needs at least two members")
        if weights is not None:
            if len(weights) != len(members):
                raise ConfigError(
                    f"{len(weights)} weights for {len(members)} members"
                )
            if any(w < 0 for w in weights) or sum(weights) == 0:
                raise ConfigError("weights must be non-negative and not all zero")
        from repro.core.windowing import WindowGrid

        self.calendar = calendar
        self.window_months = int(window_months)
        self.grid = WindowGrid.monthly(calendar, self.window_months)
        self.members = list(members)
        self.weights = (
            [float(w) for w in weights]
            if weights is not None
            else [1.0] * len(members)
        )
        for member in self.members:
            if member.n_windows != self.grid.n_windows:
                raise ConfigError(
                    f"member {getattr(member, 'name', member)!r} has a "
                    f"mismatched window grid"
                )

    @property
    def n_windows(self) -> int:
        return self.grid.n_windows

    def window_month(self, window_index: int) -> int:
        return self.grid.end_month(window_index, self.calendar)

    def fit(
        self,
        log: TransactionLog,
        cohorts: CohortLabels,
        window_index: int,
        customers: Iterable[int] | None = None,
    ) -> RankAverageEnsemble:
        """Fit every member at the evaluation window."""
        ids = list(customers) if customers is not None else None
        for member in self.members:
            member.fit(log, cohorts, window_index, ids)
        return self

    def churn_scores(
        self,
        log: TransactionLog,
        customers: Iterable[int],
        window_index: int | None = None,
    ) -> dict[int, float]:
        """Weighted mean of the members' rank-normalised scores."""
        ids = list(customers)
        total = {c: 0.0 for c in ids}
        weight_sum = sum(self.weights)
        for member, weight in zip(self.members, self.weights, strict=True):
            normalised = rank_normalise(
                member.churn_scores(log, ids, window_index)
            )
            for customer in ids:
                total[customer] += weight * normalised[customer]
        return {c: v / weight_sum for c, v in total.items()}
