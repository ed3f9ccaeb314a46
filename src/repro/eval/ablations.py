"""Ablation studies of the stability model's design choices (DESIGN.md A1-A3).

* :func:`alpha_sweep` — sensitivity of detection AUROC to the ``alpha``
  parameter of the exponential significance, plus the non-exponential
  scoring alternatives.
* :func:`window_sweep` — sensitivity to the window span ``w``.
* :func:`explanation_quality` — do the paper's argmax / top-K
  explanations recover the segments the generator actually removed?
  Reported as precision@K and recall@K against the injected ground
  truth.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.significance import (
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
    SignificanceFunction,
)
from repro.data.population import PopulationFrame
from repro.data.validation import DatasetBundle
from repro.errors import EvaluationError
from repro.eval.protocol import EvaluationProtocol
from repro.obs import span
from repro.obs.progress import progress
from repro.runtime.checkpoint import CheckpointJournal
from repro.synth.generator import SyntheticDataset

__all__ = [
    "AblationPoint",
    "alpha_sweep",
    "window_sweep",
    "significance_function_sweep",
    "ExplanationQuality",
    "explanation_quality",
]

logger = logging.getLogger(__name__)


def _log_resume_summary(journal: CheckpointJournal | None) -> None:
    """One line of journal traffic after a checkpointed sweep."""
    if journal is not None and (journal.hits or journal.misses or journal.invalid):
        logger.info("%s journal: %s", journal.schema, journal.resume_summary())


@dataclass(frozen=True, slots=True)
class AblationPoint:
    """One configuration of an ablation sweep and its AUROC."""

    label: str
    auroc: float


def _sweep_journal(checkpoint_dir: str | Path | None) -> CheckpointJournal | None:
    """The ablation cell journal (``None`` without a ``checkpoint_dir``)."""
    if checkpoint_dir is None:
        return None
    return CheckpointJournal(checkpoint_dir, schema="ablations")


def _journaled_point(
    journal: CheckpointJournal | None,
    key: tuple[str, ...],
    label: str,
    compute: Callable[[], float],
) -> AblationPoint:
    """One sweep cell: a journaled cell skips the model fit entirely."""
    if journal is None:
        return AblationPoint(label=label, auroc=float(compute()))
    value = journal.get_or_compute(key, lambda: float(compute()))
    return AblationPoint(label=label, auroc=float(value))


def _auroc_at_month(
    bundle: DatasetBundle,
    model: StabilityModel,
    eval_month: int,
    customers: Sequence[int],
) -> float:
    window_months = model.config.window_months
    protocol = EvaluationProtocol(
        bundle,
        config=ExperimentConfig(
            window_months=window_months,
            first_month=eval_month,
            last_month=eval_month + window_months,
        ),
    )
    series = protocol.evaluate_stability_model(model, customers)
    return series.points[0].auroc


def alpha_sweep(
    bundle: DatasetBundle,
    alphas: Sequence[float] = (1.1, 1.5, 2.0, 3.0, 4.0, 8.0),
    window_months: int = 2,
    eval_month: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> list[AblationPoint]:
    """Detection AUROC at the reference month for a range of ``alpha``.

    With a ``checkpoint_dir`` each finished alpha cell is journaled
    atomically; a rerun against the same directory skips the fit and
    evaluation of every finished cell.
    """
    eval_month = (
        bundle.cohorts.onset_month + 2 if eval_month is None else eval_month
    )
    customers = bundle.cohorts.all_customers()
    base = ExperimentConfig(window_months=window_months)
    journal = _sweep_journal(checkpoint_dir)
    # alpha does not change the grid: encode the cohort once and share
    # the frame across the whole sweep.  Built lazily so a fully
    # journaled rerun never encodes the log at all.
    frame: PopulationFrame | None = None

    def fit_and_score(alpha: float) -> float:
        nonlocal frame
        if frame is None:
            frame = PopulationFrame.from_log(
                bundle.log, base.grid(bundle.calendar), customers
            )
        model = StabilityModel(
            bundle.calendar, config=base.evolve(alpha=alpha)
        ).fit(frame)
        return _auroc_at_month(bundle, model, eval_month, customers)

    # Pin the dataset in every cell key: a checkpoint_dir reused against
    # a different bundle must recompute, not alias.
    dataset = f"d{bundle.fingerprint()}" if journal is not None else ""
    points = []
    with progress(len(alphas), "alpha sweep", log=logger) as reporter:
        for alpha in alphas:
            label = f"alpha={alpha:g}"
            with span("eval.cell", sweep="alpha_sweep", label=label):
                points.append(
                    _journaled_point(
                        journal,
                        (
                            "alpha_sweep",
                            label,
                            f"m{eval_month}",
                            f"w{window_months}",
                            dataset,
                        ),
                        label,
                        lambda a=alpha: fit_and_score(a),
                    )
                )
            reporter.advance(key=label)
    _log_resume_summary(journal)
    return points


def window_sweep(
    bundle: DatasetBundle,
    window_months_list: Sequence[int] = (1, 2, 3, 4),
    alpha: float = 2.0,
    eval_month: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> list[AblationPoint]:
    """Detection AUROC for a range of window spans.

    The evaluation month is aligned to the first window ending at or
    after the reference month, so spans that do not divide it remain
    comparable.  With a ``checkpoint_dir`` each finished span cell is
    journaled atomically and skipped on rerun (each span implies its own
    grid, frame encoding and fit, so a skipped cell saves all three).
    """
    reference = bundle.cohorts.onset_month + 2 if eval_month is None else eval_month
    customers = bundle.cohorts.all_customers()
    journal = _sweep_journal(checkpoint_dir)

    def fit_and_score(window_months: int) -> float:
        config = ExperimentConfig(window_months=window_months, alpha=alpha)
        model = StabilityModel(bundle.calendar, config=config).fit(
            PopulationFrame.from_log(
                bundle.log, config.grid(bundle.calendar), customers
            )
        )
        month = next(
            (
                model.window_month(k)
                for k in range(model.n_windows)
                if model.window_month(k) >= reference
            ),
            None,
        )
        if month is None:
            raise EvaluationError(
                f"no {window_months}-month window ends at or after month {reference}"
            )
        return _auroc_at_month(bundle, model, month, customers)

    dataset = f"d{bundle.fingerprint()}" if journal is not None else ""
    points = []
    with progress(len(window_months_list), "window sweep", log=logger) as reporter:
        for window_months in window_months_list:
            label = f"w={window_months}mo"
            with span("eval.cell", sweep="window_sweep", label=label):
                points.append(
                    _journaled_point(
                        journal,
                        (
                            "window_sweep",
                            label,
                            f"m{reference}",
                            f"a{alpha:g}",
                            dataset,
                        ),
                        label,
                        lambda w=window_months: fit_and_score(w),
                    )
                )
            reporter.advance(key=label)
    _log_resume_summary(journal)
    return points


def significance_function_sweep(
    bundle: DatasetBundle,
    window_months: int = 2,
    eval_month: int | None = None,
) -> list[AblationPoint]:
    """Compare the paper's exponential rule against the alternatives."""
    eval_month = (
        bundle.cohorts.onset_month + 2 if eval_month is None else eval_month
    )
    customers = bundle.cohorts.all_customers()
    functions: list[SignificanceFunction] = [
        ExponentialSignificance(alpha=2.0),
        FrequencyRatioSignificance(),
        LinearSignificance(),
    ]
    points = []
    for function in functions:
        model = StabilityModel(
            bundle.calendar,
            significance=function,
            config=ExperimentConfig(window_months=window_months),
        ).fit(bundle.log, customers)
        points.append(
            AblationPoint(
                label=function.name,
                auroc=_auroc_at_month(bundle, model, eval_month, customers),
            )
        )
    return points


@dataclass(frozen=True)
class ExplanationQuality:
    """Precision/recall of top-K explanations against injected ground truth.

    For each churner and each window after their onset, the model's top-K
    newly-missing segments are compared with the segments the generator
    dropped during that window.
    """

    top_k: int
    precision: float
    recall: float
    n_evaluated: int


def explanation_quality(
    dataset: SyntheticDataset,
    window_months: int = 2,
    alpha: float = 2.0,
    top_k: int = 3,
) -> ExplanationQuality:
    """Score the paper's explanations against the generator's ground truth."""
    bundle = dataset.bundle
    churners = sorted(bundle.cohorts.churners)
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    model = StabilityModel(bundle.calendar, config=config).fit(
        bundle.log, churners
    )

    hits = 0
    predicted_total = 0
    actual_total = 0
    n_evaluated = 0
    for customer_id in churners:
        schedule = dataset.schedules[customer_id]
        trajectory = model.trajectory(customer_id)
        for k in range(model.n_windows):
            begin, end = model.grid.bounds(k)
            first_month = bundle.calendar.month_of_day(begin)
            last_month = bundle.calendar.month_of_day(end - 1)
            actual = {
                segment
                for segment, month in schedule.drop_month.items()
                if first_month <= month <= last_month
            }
            if not actual:
                continue
            explanation = model.explain(customer_id, k, top_k=top_k)
            predicted = {item.item for item in explanation.newly_missing[:top_k]}
            if not predicted:
                predicted = {item.item for item in explanation.missing[:top_k]}
            hits += len(predicted & actual)
            predicted_total += len(predicted)
            actual_total += len(actual)
            n_evaluated += 1
    precision = hits / predicted_total if predicted_total else 0.0
    recall = hits / actual_total if actual_total else 0.0
    return ExplanationQuality(
        top_k=top_k,
        precision=precision,
        recall=recall,
        n_evaluated=n_evaluated,
    )
