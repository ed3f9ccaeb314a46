"""Hyper-parameter selection for the stability model.

Section 3.1 of the paper: "The window length for this experiment is set to
two months and the alpha parameter is set to 2.  These values were chosen
after performing a 5-fold cross-validation search."

:func:`tune_stability_model` reproduces that selection: a grid over
``(window_months, alpha)`` is scored by the mean AUROC over stratified
customer folds, measured at a reference evaluation month after the
defection onset.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.data.cohorts import CohortLabels
from repro.data.calendar import StudyCalendar
from repro.data.transactions import TransactionLog
from repro.errors import ConfigError, EvaluationError
from repro.ml.crossval import GridSearchResult, StratifiedKFold, grid_search
from repro.ml.metrics import auroc

__all__ = ["TuningOutcome", "tune_stability_model"]


@dataclass(frozen=True)
class TuningOutcome:
    """Result of the cross-validated parameter search.

    Attributes
    ----------
    best_window_months, best_alpha:
        Selected parameters (the paper selects 2 and 2).
    best_score:
        Mean cross-validated AUROC of the selected parameters.
    search:
        The full grid-search table for reporting.
    """

    best_window_months: int
    best_alpha: float
    best_score: float
    search: GridSearchResult


def _mean_auroc_over_months(
    model: StabilityModel,
    cohorts: CohortLabels,
    customers: Sequence[int],
    first_month: int,
    last_month: int,
) -> float:
    """Mean AUROC of a fitted model over windows ending in a month range.

    Averaging over the whole defection period (rather than scoring one
    month) keeps grids with different window spans comparable: a 3-month
    grid has no window ending exactly at month 20, but it has windows
    ending inside the period.
    """
    aurocs = []
    ordered = sorted(customers)
    y_true = cohorts.label_vector(ordered)
    for k in range(model.n_windows):
        if not first_month <= model.window_month(k) <= last_month:
            continue
        scores = model.churn_scores(k, ordered)
        y_score = np.asarray([scores[c] for c in ordered])
        aurocs.append(auroc(y_true, y_score))
    if not aurocs:
        raise EvaluationError(
            f"no window of the model's grid ends within months "
            f"[{first_month}, {last_month}]"
        )
    return float(np.mean(aurocs))


def tune_stability_model(
    log: TransactionLog,
    cohorts: CohortLabels,
    calendar: StudyCalendar,
    window_grid: Sequence[int] = (1, 2, 3),
    alpha_grid: Sequence[float] = (1.5, 2.0, 3.0, 4.0),
    eval_months: tuple[int, int] | None = None,
    n_splits: int = 5,
    seed: int = 0,
) -> TuningOutcome:
    """5-fold cross-validated grid search over window span and alpha.

    The score of a grid point is the mean AUROC over held-out customer
    folds, averaged over every window ending inside ``eval_months``
    (default: the six months following the defection onset — the paper's
    "defected during the last 6 months" period).  The stability model has
    no trainable parameters, so "training" folds only pin down which
    customers the score may *not* be measured on; scoring on held-out
    customers still guards the selection against cohort idiosyncrasies,
    which is what the paper's CV is for.

    Raises
    ------
    ConfigError
        If a grid is empty.
    EvaluationError
        If no window of some grid ends inside ``eval_months``.
    """
    if not window_grid or not alpha_grid:
        raise ConfigError("window_grid and alpha_grid must be non-empty")
    if eval_months is None:
        eval_months = (cohorts.onset_month + 1, cohorts.onset_month + 6)
    first_month, last_month = eval_months
    customers = cohorts.all_customers()
    labels = cohorts.label_vector(customers)

    # Pre-fit one model per window span: trajectories do not depend on the
    # customer folds, so they are shared across folds and alphas reuse the
    # same grid only when the span matches.
    models: dict[tuple[int, float], StabilityModel] = {}
    for window_months in window_grid:
        for alpha in alpha_grid:
            config = ExperimentConfig(window_months=window_months, alpha=alpha)
            model = StabilityModel(calendar, config=config).fit(log, customers)
            models[(int(window_months), float(alpha))] = model

    def score_fn(params: dict, train: np.ndarray, test: np.ndarray) -> float:
        del train  # the model is parameter-free; folds only select eval customers
        model = models[(int(params["window_months"]), float(params["alpha"]))]
        held_out = [customers[i] for i in test]
        return _mean_auroc_over_months(
            model, cohorts, held_out, first_month, last_month
        )

    folds = list(StratifiedKFold(n_splits=n_splits, seed=seed).split(labels))
    result = grid_search(
        {"window_months": list(window_grid), "alpha": list(alpha_grid)},
        score_fn,
        folds,
    )
    return TuningOutcome(
        best_window_months=int(result.best_params["window_months"]),
        best_alpha=float(result.best_params["alpha"]),
        best_score=result.best_score,
        search=result,
    )
