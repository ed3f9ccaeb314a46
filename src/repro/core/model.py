"""The public facade of the paper's contribution: :class:`StabilityModel`.

The model binds together an :class:`~repro.config.ExperimentConfig`, a
significance rule and the stability/explanation machinery, and exposes
the operations the evaluation protocol and a retailer's application code
need:

* ``fit(log)`` — compute the stability trajectory of every customer;
  also accepts a pre-built
  :class:`~repro.data.population.PopulationFrame` so the encoding cost
  is paid once per dataset, not once per model;
* ``trajectory(customer)`` — inspect one customer;
* ``churn_scores(window)`` — continuous churn score per customer at an
  evaluation window, ready for ROC analysis or campaign ranking;
* ``explain(customer, window, k)`` — the paper's argmax-missing-item
  explanation, extended to top-K.

Engine selection goes through :mod:`repro.core.engines`:
``backend="incremental"|"batch"`` name two implementations of one
protocol.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.config import ExperimentConfig
from repro.core.batch import BatchStability
from repro.core.detector import Alarm, ThresholdDetector
from repro.core.engines import FitSpec, frame_windowed_history, get_engine
from repro.core.explanation import DropExplanation, explain_window
from repro.core.significance import ExponentialSignificance, SignificanceFunction
from repro.core.stability import (
    StabilityTrajectory,
    WindowStability,
    stability_trajectory,
)
from repro.core.windowing import Window, windowed_history
from repro.data.calendar import StudyCalendar
from repro.data.population import PopulationFrame
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, DataError, NotFittedError

if TYPE_CHECKING:
    from repro.runtime.executor import ExecutionReport

__all__ = ["StabilityModel"]


class StabilityModel:
    """Customer-stability attrition model (Gautrais et al., EDBT 2016).

    Parameters
    ----------
    calendar:
        Study calendar the transaction log's day offsets refer to.
    window_months:
        Window span ``w`` in whole months (the paper uses 2).
    alpha:
        Base of the exponential significance rule (the paper uses 2).
        Ignored when ``significance`` is given explicitly.
    significance:
        Custom significance rule; overrides ``alpha``.
    item_weights:
        Optional per-item weights (e.g. segment prices) producing
        revenue-weighted stability; see
        :func:`~repro.core.stability.stability_trajectory`.
    config:
        The validated :class:`~repro.config.ExperimentConfig` carrying
        ``window_months`` / ``alpha`` / ``backend`` / ``n_jobs`` /
        ``counting`` in one object.  When given, ``window_months`` and
        ``alpha`` must be left at their defaults.

        Engine selection lives on the config: ``backend`` names a
        fit/score engine (:mod:`repro.core.engines`) —
        ``"incremental"`` (default, flexible, every significance rule /
        counting scheme / item weighting, full per-window significance
        snapshots) or ``"batch"`` (population-scale columnar engine,
        optionally sharded over ``n_jobs`` worker processes).  The batch
        backend supports only the paper's exponential significance with
        the ``"paper"`` counting scheme and no item weights
        (a :class:`~repro.errors.ConfigError` otherwise); its
        stability values agree exactly with the incremental engine
        (differentially tested), and :meth:`explain` transparently
        recomputes missing significance snapshots through the
        incremental engine.

    Examples
    --------
    >>> from repro.data import Basket, StudyCalendar, TransactionLog
    >>> calendar = StudyCalendar.paper()
    >>> log = TransactionLog()
    >>> for month in range(6):
    ...     day = calendar.month_start_day(month)
    ...     log.add(Basket.of(customer_id=7, day=day, items=[1, 2]))
    >>> model = StabilityModel(calendar, window_months=2, alpha=2).fit(log)
    >>> model.trajectory(7).at(2).stability
    1.0
    """

    def __init__(
        self,
        calendar: StudyCalendar,
        window_months: int = 2,
        alpha: float = 2.0,
        significance: SignificanceFunction | None = None,
        item_weights: dict[int, float] | None = None,
        config: ExperimentConfig | None = None,
    ) -> None:
        if config is None:
            # Convenience construction: fold the loose kwargs into the
            # canonical config.  When a non-exponential rule is supplied,
            # alpha is meaningless — keep the config's default so it
            # cannot trip validation.
            if significance is not None and not isinstance(
                significance, ExponentialSignificance
            ):
                alpha = 2.0
            elif isinstance(significance, ExponentialSignificance):
                alpha = significance.alpha
            config = ExperimentConfig(
                window_months=window_months,
                alpha=alpha,
            )
        self.config = config
        self.calendar = calendar
        self.significance: SignificanceFunction = (
            significance if significance is not None else config.significance()
        )
        self.item_weights = dict(item_weights) if item_weights is not None else None
        self._engine = get_engine(config.backend)
        self._spec = FitSpec(
            significance=self.significance,
            counting=config.counting,
            item_weights=self.item_weights,
            n_jobs=config.n_jobs,
            retries=config.retries,
        )
        self._engine.validate(self._spec)
        self.grid = config.grid(calendar)
        self._frame: PopulationFrame | None = None
        self._trajectories: dict[int, StabilityTrajectory] | None = None
        self._batch: BatchStability | None = None
        self._fit_log: TransactionLog | None = None
        self._snapshot_cache: dict[
            tuple[int, ExperimentConfig], StabilityTrajectory
        ] = {}

    @classmethod
    def from_config(
        cls, calendar: StudyCalendar, config: ExperimentConfig
    ) -> StabilityModel:
        """The model a validated config describes."""
        return cls(calendar, config=config)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        log: TransactionLog | PopulationFrame,
        customers: Iterable[int] | None = None,
    ) -> StabilityModel:
        """Compute stability trajectories for customers in the log.

        Parameters
        ----------
        log:
            Segment-level transaction log, or a pre-built
            :class:`~repro.data.population.PopulationFrame` on this
            model's grid (the frame is reused as-is — zero re-encoding).
        customers:
            Restrict to these customers (default: everyone in the log /
            frame).
        """
        frame = self._as_frame(log, customers)
        self._frame = frame
        self._fit_log = frame.log
        self._batch = None
        self._snapshot_cache = {}
        result = self._engine.fit(frame, self._spec)
        if result.batch is not None:
            self._batch = result.batch
            self._trajectories = {}
        else:
            self._trajectories = result.trajectories
        return self

    def _as_frame(
        self,
        log: TransactionLog | PopulationFrame,
        customers: Iterable[int] | None,
    ) -> PopulationFrame:
        if isinstance(log, PopulationFrame):
            if log.grid != self.grid:
                raise ConfigError(
                    "PopulationFrame grid does not match the model's grid; "
                    "build the frame with the same ExperimentConfig"
                )
            if customers is None:
                return log
            if log.log is None:
                raise ConfigError(
                    "cannot restrict a log-less PopulationFrame to a "
                    "customer subset; pass the TransactionLog instead"
                )
            return PopulationFrame.from_log(log.log, self.grid, customers)
        return PopulationFrame.from_log(log, self.grid, customers)

    def _alpha(self) -> float:
        """The exponential base (the batch backend is gated to this rule)."""
        assert isinstance(self.significance, ExponentialSignificance)
        return self.significance.alpha

    def _batch_trajectory(self, customer_id: int) -> StabilityTrajectory:
        assert self._batch is not None and self._trajectories is not None
        try:
            row = self._batch.row_of(customer_id)
        except ConfigError:
            raise DataError(f"customer {customer_id} was not fitted") from None
        items_per_window = self._batch.population.window_items(row)
        records = tuple(
            WindowStability(
                window=Window(
                    index=k,
                    begin_day=self.grid.boundaries[k],
                    end_day=self.grid.boundaries[k + 1],
                    items=items_per_window[k],
                ),
                stability=float(self._batch.stability[row, k]),
                kept_mass=float(self._batch.kept_mass[row, k]),
                total_mass=float(self._batch.total_mass[row, k]),
                significances={},
            )
            for k in range(self._batch.population.n_windows)
        )
        trajectory = StabilityTrajectory(customer_id=customer_id, records=records)
        self._trajectories[customer_id] = trajectory
        return trajectory

    @property
    def is_fitted(self) -> bool:
        return self._trajectories is not None or self._batch is not None

    @property
    def execution_report(self) -> ExecutionReport | None:
        """The resilient executor's report for the last sharded batch fit.

        ``None`` unless the fit ran ``backend="batch"`` with ``n_jobs >
        1`` (serial fits have no workers to isolate).  See
        :class:`~repro.runtime.executor.ExecutionReport` for what it
        records (retries, degradations, wall time).
        """
        return self._batch.execution if self._batch is not None else None

    def _fitted(self) -> dict[int, StabilityTrajectory]:
        if self._trajectories is None:
            raise NotFittedError("StabilityModel used before fit")
        return self._trajectories

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        """Number of windows on the model's grid."""
        return self.grid.n_windows

    def customers(self) -> list[int]:
        """Sorted customers with a fitted trajectory."""
        trajectories = self._fitted()
        if self._batch is not None:
            return [int(c) for c in self._batch.customer_ids]
        return sorted(trajectories)

    def trajectory(self, customer_id: int) -> StabilityTrajectory:
        """Stability trajectory of one fitted customer.

        Under the batch backend trajectories materialise lazily from the
        population arrays (and are cached); see the ``backend`` parameter
        for what lazily-built records do and do not carry.
        """
        trajectories = self._fitted()
        if self._batch is not None and customer_id not in trajectories:
            return self._batch_trajectory(customer_id)
        try:
            return trajectories[customer_id]
        except KeyError:
            raise DataError(f"customer {customer_id} was not fitted") from None

    def stability_at(self, customer_id: int, window_index: int) -> float:
        """``Stability_i^k`` (``nan`` when undefined)."""
        if self._batch is not None:
            self._fitted()
            try:
                row = self._batch.row_of(customer_id)
            except ConfigError:
                raise DataError(f"customer {customer_id} was not fitted") from None
            if not 0 <= window_index < self._batch.population.n_windows:
                raise ConfigError(
                    f"window index {window_index} out of range "
                    f"[0, {self._batch.population.n_windows})"
                )
            return float(self._batch.stability[row, window_index])
        return self.trajectory(customer_id).at(window_index).stability

    def churn_scores(
        self, window_index: int, customers: Iterable[int] | None = None
    ) -> dict[int, float]:
        """Churn score (``1 - stability``) per customer at a window.

        Higher means more likely defecting; undefined stability maps to a
        neutral 0.5 (see :meth:`StabilityTrajectory.churn_score`).  Under
        the batch backend the whole population is read off the stability
        matrix in one vectorised slice.
        """
        selected = list(customers) if customers is not None else self.customers()
        if self._batch is not None:
            self._fitted()
            if not 0 <= window_index < self._batch.population.n_windows:
                raise ConfigError(
                    f"window index {window_index} out of range "
                    f"[0, {self._batch.population.n_windows})"
                )
            ids = np.asarray(selected, dtype=np.int64)
            known = self._batch.customer_ids
            rows = np.searchsorted(known, ids)
            rows_safe = np.minimum(rows, len(known) - 1) if len(known) else rows
            if not len(known) or (known[rows_safe] != ids).any():
                missing = (
                    selected[0]
                    if not len(known)
                    else int(ids[known[rows_safe] != ids][0])
                )
                raise DataError(f"customer {missing} was not fitted")
            stability = self._batch.stability[rows_safe, window_index]
            churn = np.where(np.isnan(stability), 0.5, 1.0 - stability)
            return {
                int(customer_id): float(score)
                for customer_id, score in zip(ids, churn, strict=True)
            }
        return {
            customer_id: self.trajectory(customer_id).churn_score(window_index)
            for customer_id in selected
        }

    def _snapshot_trajectory(self, customer_id: int) -> StabilityTrajectory:
        """A trajectory with full significance snapshots, whatever backend.

        The numpy backends drop per-window snapshots for speed; when the
        explanation layer needs them this recomputes one customer through
        the incremental engine, memoised per ``(customer, config)`` so a
        second ``explain()`` on the same customer does no kernel work.
        """
        if self.config.backend == "incremental":
            return self.trajectory(customer_id)
        self.trajectory(customer_id)  # validates fitted state + customer id
        key = (customer_id, self.config)
        if key not in self._snapshot_cache:
            if self._fit_log is not None:
                windows = windowed_history(
                    self._fit_log.history(customer_id), self.grid
                )
            else:
                # Log-less fit (slab-backed / sharded frame): rebuild the
                # windowed history from the columnar levels instead.
                assert self._frame is not None
                windows = frame_windowed_history(
                    self._frame, self._frame.row_of(customer_id)
                )
            self._snapshot_cache[key] = stability_trajectory(
                customer_id,
                windows,
                significance=self.significance,
                counting=self.config.counting,
                item_weights=self.item_weights,
            )
        return self._snapshot_cache[key]

    def explain(
        self, customer_id: int, window_index: int, top_k: int = 5
    ) -> DropExplanation:
        """Top-K most significant items the customer stopped buying."""
        explanation = explain_window(
            self._snapshot_trajectory(customer_id), window_index
        )
        return DropExplanation(
            customer_id=explanation.customer_id,
            window_index=explanation.window_index,
            stability=explanation.stability,
            missing=explanation.top_items(top_k),
            newly_missing=explanation.newly_missing[:top_k],
        )

    def detect(self, beta: float, first_month: int = 12) -> list[Alarm]:
        """First alarm per customer under the paper's threshold rule.

        ``first_month`` is the burn-in: windows ending before it are not
        monitored (stability is noisy while significance counts are
        small).  The default matches the start of the paper's evaluation
        axis.
        """
        detector = ThresholdDetector(beta)
        first_window = next(
            (
                k
                for k in range(self.n_windows)
                if self.window_month(k) >= first_month
            ),
            self.n_windows,
        )
        if self._batch is not None:
            self._fitted()
            return self._detect_batch(detector.beta, first_window)
        alarms = []
        for customer_id in self.customers():
            alarm = detector.first_alarm(
                self.trajectory(customer_id), first_window=first_window
            )
            if alarm is not None:
                alarms.append(alarm)
        return alarms

    def _detect_batch(self, beta: float, first_window: int) -> list[Alarm]:
        """Vectorised first-alarm scan over the batch stability matrix."""
        assert self._batch is not None
        stability = self._batch.stability[:, first_window:]
        if stability.shape[1] == 0:
            return []
        with np.errstate(invalid="ignore"):
            fired = ~np.isnan(stability) & (stability <= beta)
        has_alarm = fired.any(axis=1)
        first_offsets = np.argmax(fired, axis=1)
        return [
            Alarm(
                customer_id=int(self._batch.customer_ids[row]),
                window_index=int(first_window + first_offsets[row]),
                stability=float(stability[row, first_offsets[row]]),
            )
            for row in np.flatnonzero(has_alarm)
        ]

    def window_month(self, window_index: int) -> int:
        """Months elapsed at the end of a window (Figure 1's x axis)."""
        return self.grid.end_month(window_index, self.calendar)
