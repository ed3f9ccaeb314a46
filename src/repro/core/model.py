"""The public facade of the paper's contribution: :class:`StabilityModel`.

The model binds together an :class:`~repro.config.ExperimentConfig`, a
significance rule and the stability/explanation machinery, and exposes
the operations the evaluation protocol and a retailer's application code
need:

* ``fit(log)`` — the stability of every customer at every window, as
  the matrices of the columnar kernel (:mod:`repro.core.batch`); also
  accepts a pre-built :class:`~repro.data.population.PopulationFrame`
  so the encoding cost is paid once per dataset, not once per model;
* ``trajectory(customer)`` — inspect one customer: records with full
  per-item significance snapshots, built on demand from the frame's
  columns (:func:`~repro.core.engines.customer_trajectory`);
* ``churn_scores(window)`` — continuous churn score per customer at an
  evaluation window, ready for ROC analysis or campaign ranking;
* ``explain(customer, window, k)`` — the paper's argmax-missing-item
  explanation, extended to top-K.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.config import ExperimentConfig
from repro.core import engines
from repro.core.batch import BatchStability, Scoring
from repro.core.detector import Alarm, ThresholdDetector
from repro.core.explanation import DropExplanation, explain_window
from repro.core.significance import ExponentialSignificance, SignificanceFunction
from repro.core.stability import StabilityTrajectory
from repro.data.calendar import StudyCalendar
from repro.data.population import PopulationFrame
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, DataError, NotFittedError
from repro.obs import span

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
        Custom significance rule, any function of ``(c, l)``; overrides
        ``alpha``.
    item_weights:
        Optional per-item multiplicative weights (default 1.0 for every
        item), each positive.  With segment prices as weights the model
        computes **revenue-weighted stability**: losing an expensive
        habitual segment costs proportionally more stability, and
        explanations rank by weighted significance.
    config:
        The validated :class:`~repro.config.ExperimentConfig` carrying
        ``window_months`` / ``alpha`` / ``n_jobs`` / ``retries`` /
        ``counting`` in one object.  When given, ``window_months`` and
        ``alpha`` must be left at their defaults
        (:class:`~repro.errors.ConfigError` otherwise).

    Every rule, counting scheme and weighting fits through the one
    columnar kernel (:func:`~repro.core.batch.stability_matrix`),
    sharded over ``config.n_jobs`` worker processes when above 1.

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
        else:
            for name, value, default in (
                ("window_months", window_months, 2),
                ("alpha", alpha, 2.0),
            ):
                if value != default:
                    raise ConfigError(
                        f"{name}={value!r} given beside a config; set it "
                        f"on the ExperimentConfig instead"
                    )
        if item_weights is not None:
            bad = {i: w for i, w in item_weights.items() if not w > 0}
            if bad:
                raise ConfigError(
                    "item_weights must be positive, got "
                    f"{dict(list(bad.items())[:3])}"
                )
        self.config = config
        self.calendar = calendar
        self.significance: SignificanceFunction = (
            significance if significance is not None else config.significance()
        )
        self.item_weights = dict(item_weights) if item_weights is not None else None
        self.grid = config.grid(calendar)
        self._scoring = Scoring.of(
            self.significance,
            config.counting,
            self.item_weights,
            self.grid.n_windows,
        )
        self._batch: BatchStability | None = None
        #: Trajectories built so far, by customer (cleared by ``fit``).
        self._trajectories: dict[int, StabilityTrajectory] = {}

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
        """Compute the stability matrices of the customers in the log.

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
        self._batch = None
        self._trajectories = {}
        with span("engine.fit", customers=frame.n_customers):
            self._batch = engines.stability_matrix(
                frame,
                n_jobs=self.config.n_jobs,
                retries=self.config.retries,
                scoring=self._scoring,
            )
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

    @property
    def is_fitted(self) -> bool:
        return self._batch is not None

    @property
    def execution_report(self) -> ExecutionReport | None:
        """The resilient executor's report for the last sharded fit.

        ``None`` unless the fit ran with ``n_jobs > 1`` (serial fits
        have no workers to isolate).  See
        :class:`~repro.runtime.executor.ExecutionReport` for what it
        records (retries, degradations, wall time).
        """
        return self._batch.execution if self._batch is not None else None

    def _fitted(self) -> BatchStability:
        if self._batch is None:
            raise NotFittedError("StabilityModel used before fit")
        return self._batch

    def _row(self, customer_id: int) -> int:
        try:
            return self._fitted().row_of(customer_id)
        except ConfigError:
            raise DataError(f"customer {customer_id} was not fitted") from None

    def _check_window(self, window_index: int) -> None:
        if not 0 <= window_index < self.n_windows:
            raise ConfigError(
                f"window index {window_index} out of range [0, {self.n_windows})"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        """Number of windows on the model's grid."""
        return self.grid.n_windows

    def customers(self) -> list[int]:
        """Sorted fitted customers."""
        return self._fitted().customer_ids.tolist()

    def trajectory(self, customer_id: int) -> StabilityTrajectory:
        """Stability trajectory of one fitted customer.

        Built on first request from the frame's columns, with the full
        per-item significance snapshot of every window, and cached until
        the next :meth:`fit`.
        """
        trajectory = self._trajectories.get(customer_id)
        if trajectory is None:
            trajectory = engines.customer_trajectory(
                self._fitted(), self._row(customer_id), self._scoring
            )
            self._trajectories[customer_id] = trajectory
        return trajectory

    def stability_at(self, customer_id: int, window_index: int) -> float:
        """``Stability_i^k`` (``nan`` when undefined)."""
        row = self._row(customer_id)
        self._check_window(window_index)
        return float(self._fitted().stability[row, window_index])

    def churn_scores(
        self, window_index: int, customers: Iterable[int] | None = None
    ) -> dict[int, float]:
        """Churn score (``1 - stability``) per customer at a window.

        Higher means more likely defecting; undefined stability maps to a
        neutral 0.5 (see :meth:`StabilityTrajectory.churn_score`).  The
        ids and the window's stability column are read as two lists, so
        a memory-mapped fit is not read one scalar per customer.
        """
        batch = self._fitted()
        self._check_window(window_index)
        known = batch.customer_ids
        if customers is None:
            ids = known.tolist()
            stability = batch.stability[:, window_index]
        else:
            wanted = np.asarray(list(customers), dtype=np.int64)
            rows = np.searchsorted(known, wanted)
            fitted = rows < len(known)
            fitted[fitted] = known[rows[fitted]] == wanted[fitted]
            if not fitted.all():
                raise DataError(f"customer {wanted[~fitted][0]} was not fitted")
            ids = wanted.tolist()
            stability = batch.stability[rows, window_index]
        churn = np.where(np.isnan(stability), 0.5, 1.0 - stability)
        return dict(zip(ids, churn.tolist(), strict=True))

    def explain(
        self, customer_id: int, window_index: int, top_k: int = 5
    ) -> DropExplanation:
        """Top-K most significant items the customer stopped buying."""
        explanation = explain_window(self.trajectory(customer_id), window_index)
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
        axis.  The scan is vectorised over the stability matrix.
        """
        beta = ThresholdDetector(beta).beta
        batch = self._fitted()
        first_window = next(
            (
                k
                for k in range(self.n_windows)
                if self.window_month(k) >= first_month
            ),
            self.n_windows,
        )
        stability = batch.stability[:, first_window:]
        if stability.shape[1] == 0:
            return []
        with np.errstate(invalid="ignore"):
            fired = ~np.isnan(stability) & (stability <= beta)
        has_alarm = fired.any(axis=1)
        first_offsets = np.argmax(fired, axis=1)
        return [
            Alarm(
                customer_id=int(batch.customer_ids[row]),
                window_index=int(first_window + first_offsets[row]),
                stability=float(stability[row, first_offsets[row]]),
            )
            for row in np.flatnonzero(has_alarm)
        ]

    def window_month(self, window_index: int) -> int:
        """Months elapsed at the end of a window (Figure 1's x axis)."""
        return self.grid.end_month(window_index, self.calendar)
