"""The consolidated RFM baseline: features and classifier in one module.

The paper's baseline follows Buckinx & Van den Poel (EJOR 2005), "but we
only used predictors associated to the recency, frequency and monetary
variables".  This module carries the whole baseline:

* :func:`extract_rfm` — the per-customer reference extractor (one
  feature vector from one basket history);
* :func:`rfm_frame_matrix` — the columnar extractor: all customers'
  features straight from a
  :class:`~repro.data.population.PopulationFrame`'s basket columns, no
  per-customer loop;
* :func:`rfm_matrix` — the façade dispatching between the two (a
  differential test pins them bit-identical);
* :class:`RFMModel` — the logistic-regression churn classifier trained
  per evaluation window.

Feature families:

Recency
    * days between the customer's last purchase and the window end;
Frequency
    * number of shopping trips over the whole observed history;
    * number of trips inside the evaluation window (recent activity);
    * mean inter-purchase time in days;
Monetary
    * total spend over the observed history;
    * spend inside the evaluation window;
    * mean spend per trip.

All features are computed from baskets **up to the end of the evaluation
window** only — no peeking past the decision point.  Both extractors sum
monetary values with the same ``np.add.reduceat`` kernel over identical
contiguous basket ranges, which is what makes them bit-identical rather
than merely close.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.cohorts import CohortLabels
from repro.data.population import PopulationFrame, range_segment_sums
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, NotFittedError
from repro.ml.logistic import LogisticRegression
from repro.ml.preprocess import StandardScaler, impute_finite

__all__ = [
    "RFMFeatures",
    "FEATURE_NAMES",
    "extract_rfm",
    "rfm_matrix",
    "rfm_frame_matrix",
    "RFMModel",
]

#: Feature vector layout (column order of :func:`rfm_matrix`).
FEATURE_NAMES = (
    "recency_days",
    "frequency_total",
    "frequency_window",
    "interpurchase_mean_days",
    "monetary_total",
    "monetary_window",
    "monetary_per_trip",
)


@dataclass(frozen=True, slots=True)
class RFMFeatures:
    """RFM features of one customer at one evaluation window."""

    customer_id: int
    recency_days: float
    frequency_total: float
    frequency_window: float
    interpurchase_mean_days: float
    monetary_total: float
    monetary_window: float
    monetary_per_trip: float

    def as_array(self) -> np.ndarray:
        """Feature vector in :data:`FEATURE_NAMES` order."""
        return np.asarray(
            [
                self.recency_days,
                self.frequency_total,
                self.frequency_window,
                self.interpurchase_mean_days,
                self.monetary_total,
                self.monetary_window,
                self.monetary_per_trip,
            ],
            dtype=np.float64,
        )


def _monetary_sum(values: Sequence[float]) -> float:
    """Sum monetary values with the shared ``reduceat`` kernel.

    Both RFM paths must round identically; this is the scalar face of
    :func:`~repro.data.population.range_segment_sums`.
    """
    array = np.asarray(values, dtype=np.float64)
    if not len(array):
        return 0.0
    return float(np.add.reduceat(array, np.asarray([0]))[0])


def extract_rfm(
    customer_id: int,
    history: Sequence[Basket],
    grid: WindowGrid,
    window_index: int,
) -> RFMFeatures:
    """RFM features of one customer at the end of window ``window_index``.

    A customer with no purchase before the window end gets the most
    pessimistic well-defined values: recency equal to the full elapsed
    span, zero frequency and zero spend.
    """
    begin, end = grid.bounds(window_index)
    observed = [b for b in history if b.day < end]
    in_window = [b for b in observed if b.day >= begin]
    horizon_start = grid.boundaries[0]
    elapsed = float(end - horizon_start)

    if observed:
        days = sorted(b.day for b in observed)
        recency = float(end - days[-1])
        frequency_total = float(len(observed))
        if len(days) >= 2:
            interpurchase = float(np.mean(np.diff(days)))
        else:
            interpurchase = elapsed
        monetary_total = _monetary_sum([b.monetary for b in observed])
        monetary_per_trip = monetary_total / len(observed)
    else:
        recency = elapsed
        frequency_total = 0.0
        interpurchase = elapsed
        monetary_total = 0.0
        monetary_per_trip = 0.0

    return RFMFeatures(
        customer_id=customer_id,
        recency_days=recency,
        frequency_total=frequency_total,
        frequency_window=float(len(in_window)),
        interpurchase_mean_days=interpurchase,
        monetary_total=monetary_total,
        monetary_window=_monetary_sum([b.monetary for b in in_window]),
        monetary_per_trip=monetary_per_trip,
    )


def _checked_ids(customers: Iterable[int]) -> list[int]:
    ids = list(customers)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate customer ids in RFM extraction")
    return ids


def rfm_frame_matrix(
    frame: PopulationFrame,
    customers: Iterable[int],
    window_index: int,
) -> tuple[list[int], np.ndarray]:
    """Feature matrix for many customers, straight off the basket columns.

    The columnar twin of the per-customer reference path: every feature
    comes from vectorised prefix counts and contiguous-range sums over
    the frame's ``basket_days`` / ``basket_monetary`` arrays.  Bit-
    identical to stacking :func:`extract_rfm` rows (differentially
    tested), at population scale.
    """
    ids = _checked_ids(customers)
    begin, end = frame.grid.bounds(window_index)
    elapsed = float(end - frame.grid.boundaries[0])
    if not ids:
        return ids, np.empty((0, len(FEATURE_NAMES)))
    rows = frame.rows_of(ids)  # raises DataError on unknown customers
    days = frame.basket_days
    offsets = frame.basket_offsets

    # Basket days are sorted within each customer, so ``day < end`` marks
    # a per-customer prefix and ``day < begin`` a shorter one; exact
    # integer prefix counts locate both boundaries in O(B).
    count_lt_end = np.r_[0, np.cumsum(days < end)]
    count_lt_begin = np.r_[0, np.cumsum(days < begin)]
    seg_lo = offsets[rows]
    seg_hi = offsets[rows + 1]
    n_observed = count_lt_end[seg_hi] - count_lt_end[seg_lo]
    n_before_window = count_lt_begin[seg_hi] - count_lt_begin[seg_lo]
    observed_end = seg_lo + n_observed
    window_start = seg_lo + n_before_window

    some = n_observed > 0
    if len(days):
        # Out-of-range guards only matter for zero-basket customers,
        # whose rows are overwritten by the ``some`` masks below.
        last_day = days[np.maximum(observed_end - 1, 0)]
        first_day = days[np.minimum(seg_lo, len(days) - 1)]
    else:
        last_day = np.zeros(len(ids), dtype=np.int64)
        first_day = np.zeros(len(ids), dtype=np.int64)
    recency = np.where(some, (end - last_day).astype(np.float64), elapsed)
    frequency_total = n_observed.astype(np.float64)
    frequency_window = (n_observed - n_before_window).astype(np.float64)
    # mean(diff(days)) telescopes to (last - first) / (n - 1) exactly:
    # the day offsets are small integers, so every partial sum is exact.
    spans = (last_day - first_day).astype(np.float64)
    interpurchase = np.where(
        n_observed >= 2,
        spans / np.maximum(n_observed - 1, 1).astype(np.float64),
        elapsed,
    )

    # Contiguous-range sums need ascending disjoint ranges; customer rows
    # arrive in caller order, so sum in row order and un-permute after.
    order = np.argsort(rows)
    totals = np.empty(len(ids), dtype=np.float64)
    windows = np.empty(len(ids), dtype=np.float64)
    totals[order] = range_segment_sums(
        frame.basket_monetary, seg_lo[order], observed_end[order]
    )
    windows[order] = range_segment_sums(
        frame.basket_monetary, window_start[order], observed_end[order]
    )
    per_trip = np.where(
        some, totals / np.maximum(n_observed, 1).astype(np.float64), 0.0
    )

    matrix = np.column_stack(
        [
            recency,
            frequency_total,
            frequency_window,
            interpurchase,
            totals,
            windows,
            per_trip,
        ]
    )
    return ids, matrix


def rfm_matrix(
    log: TransactionLog | PopulationFrame,
    customers: Iterable[int],
    grid: WindowGrid,
    window_index: int,
) -> tuple[list[int], np.ndarray]:
    """Feature matrix for many customers at one window.

    Returns the customer ids (in the given order) and the matrix whose
    columns follow :data:`FEATURE_NAMES`.  Customers absent from the log
    are rejected — label/feature misalignment is a silent-corruption
    hazard, so it fails loudly instead.

    Passing a :class:`~repro.data.population.PopulationFrame` routes to
    the columnar extractor (:func:`rfm_frame_matrix`); the grid must
    match the frame's.
    """
    if isinstance(log, PopulationFrame):
        if log.grid != grid:
            raise ConfigError(
                "PopulationFrame grid does not match the requested RFM grid"
            )
        return rfm_frame_matrix(log, customers, window_index)
    ids = _checked_ids(customers)
    rows = []
    for customer_id in ids:
        history = log.history(customer_id)  # raises DataError when absent
        rows.append(extract_rfm(customer_id, history, grid, window_index).as_array())
    matrix = np.vstack(rows) if rows else np.empty((0, len(FEATURE_NAMES)))
    return ids, matrix


class RFMModel:
    """RFM churn classifier evaluated on a shared window grid.

    Section 3.1 of the paper: "This RFM model is built using a logistic
    regression on these three types of variables."  The model is trained
    per evaluation window: features are extracted from the history
    available up to the window's end for the training customers,
    standardised, and fed to an L2 logistic regression; churn scores for
    test customers are the predicted defection probabilities at the same
    window.

    Parameters
    ----------
    calendar:
        Study calendar of the transaction log.
    l2:
        Regularisation strength of the logistic regression.
    config:
        Shared :class:`~repro.config.ExperimentConfig` (default:
        ``ExperimentConfig()``); its ``window_months`` defines the grid,
        kept equal to the stability model's so both models are compared
        at identical decision points.
    """

    #: The evaluation protocol passes a PopulationFrame instead of a log.
    supports_frame = True

    def __init__(
        self,
        calendar: StudyCalendar,
        *,
        l2: float = 1e-2,
        config: ExperimentConfig | None = None,
    ) -> None:
        config = config if config is not None else ExperimentConfig()
        self.config = config
        self.calendar = calendar
        self.window_months = config.window_months
        self.grid = config.grid(calendar)
        self.l2 = float(l2)
        self._fitted_window: int | None = None
        self._scaler: StandardScaler | None = None
        self._classifier: LogisticRegression | None = None

    @property
    def n_windows(self) -> int:
        return self.grid.n_windows

    def window_month(self, window_index: int) -> int:
        """Months elapsed at the end of a window (Figure 1's x axis)."""
        return self.grid.end_month(window_index, self.calendar)

    # ------------------------------------------------------------------
    # Train / score
    # ------------------------------------------------------------------
    def fit(
        self,
        log: TransactionLog | PopulationFrame,
        cohorts: CohortLabels,
        window_index: int,
        customers: Iterable[int] | None = None,
    ) -> RFMModel:
        """Train the logistic regression at one evaluation window.

        Parameters
        ----------
        log:
            Transaction log (any abstraction level; only timing and
            monetary values are used) or a pre-built
            :class:`~repro.data.population.PopulationFrame` on this
            model's grid.
        cohorts:
            Labels for the training customers.
        window_index:
            The evaluation window the features are anchored at.
        customers:
            Training customers (default: every labelled customer).
        """
        train_ids = (
            list(customers) if customers is not None else cohorts.all_customers()
        )
        ids, features = rfm_matrix(log, train_ids, self.grid, window_index)
        labels = cohorts.label_vector(ids)
        features = impute_finite(features)
        self._scaler = StandardScaler().fit(features)
        self._classifier = LogisticRegression(l2=self.l2).fit(
            self._scaler.transform(features), labels
        )
        self._fitted_window = window_index
        return self

    def churn_scores(
        self,
        log: TransactionLog | PopulationFrame,
        customers: Iterable[int],
        window_index: int | None = None,
    ) -> dict[int, float]:
        """Defection probability per customer at the fitted window.

        ``window_index`` defaults to the window the model was fitted at;
        passing a different window scores features from that window with
        the coefficients learned at the fitted one (time-transfer use).
        """
        if self._classifier is None or self._scaler is None or self._fitted_window is None:
            raise NotFittedError("RFMModel used before fit")
        index = self._fitted_window if window_index is None else window_index
        ids, features = rfm_matrix(log, customers, self.grid, index)
        features = impute_finite(features)
        probabilities = self._classifier.predict_proba(self._scaler.transform(features))
        return dict(zip(ids, (float(p) for p in probabilities), strict=True))

    @property
    def coefficients(self) -> np.ndarray:
        """Learned feature weights (in :data:`FEATURE_NAMES` order)."""
        if self._classifier is None or self._classifier.coef_ is None:
            raise NotFittedError("RFMModel used before fit")
        return self._classifier.coef_.copy()
