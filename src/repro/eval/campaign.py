"""Campaign-oriented evaluation: lift and precision at targeting budgets.

AUROC (Figure 1) measures ranking quality over the whole population, but a
retention programme mails a *budgeted fraction* of customers.  This module
evaluates every scorer at the operating points marketers use: lift and
precision in the top 5/10/20% of the churn-score ranking, per evaluation
month — and compares the stability model against all implemented baselines
(RFM, extended behavioural, first/last sequences, recency, frequency-drop,
random).
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.baselines.behavioral import BehavioralModel
from repro.baselines.ensemble import RankAverageEnsemble, StabilityMember
from repro.baselines.rfm import RFMModel
from repro.baselines.rules import FrequencyDropRule, RandomBaseline, RecencyRule
from repro.baselines.sequences import SequenceModel
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.windowing import WindowGrid
from repro.data.validation import DatasetBundle
from repro.errors import EvaluationError
from repro.eval.protocol import EvaluationProtocol, WindowScorer
from repro.ml.metrics import auroc, lift_at_fraction, precision_recall_f1
from repro.obs import span
from repro.obs.progress import progress
from repro.runtime.checkpoint import CheckpointJournal, ids_digest

__all__ = ["CampaignPoint", "CampaignComparison", "compare_models"]

logger = logging.getLogger(__name__)

#: Targeting budgets evaluated (fractions of the customer base).
BUDGETS = (0.05, 0.10, 0.20)


@dataclass(frozen=True)
class CampaignPoint:
    """One scorer's campaign metrics at one evaluation month."""

    model: str
    month: int
    auroc: float
    lift: dict[float, float]  # budget fraction -> lift
    precision: dict[float, float]  # budget fraction -> precision


@dataclass(frozen=True)
class CampaignComparison:
    """All scorers' campaign metrics across the evaluation months."""

    points: tuple[CampaignPoint, ...]
    budgets: tuple[float, ...]

    def models(self) -> list[str]:
        return sorted({p.model for p in self.points})

    def at(self, model: str, month: int) -> CampaignPoint:
        for point in self.points:
            if point.model == model and point.month == month:
                return point
        raise EvaluationError(f"no campaign point for {model!r} at month {month}")

    def auroc_table(self) -> list[tuple[str, dict[int, float]]]:
        """``(model, {month: auroc})`` rows, stability first."""
        rows = []
        for model in sorted(self.models(), key=lambda m: (m != "stability", m)):
            rows.append(
                (model, {p.month: p.auroc for p in self.points if p.model == model})
            )
        return rows


def _campaign_metrics(
    name: str,
    month: int,
    scores: dict[int, float],
    labels: dict[int, int],
    budgets: Sequence[float],
) -> CampaignPoint:
    ids = sorted(scores)
    y = np.asarray([labels[c] for c in ids])
    s = np.asarray([scores[c] for c in ids])
    lift = {b: lift_at_fraction(y, s, b) for b in budgets}
    precision = {}
    for budget in budgets:
        k = max(1, int(round(budget * len(ids))))
        threshold = np.sort(s)[::-1][k - 1]
        p, __, __ = precision_recall_f1(y, s, threshold)
        precision[budget] = p
    return CampaignPoint(
        model=name, month=month, auroc=auroc(y, s), lift=lift, precision=precision
    )


def _point_to_payload(point: CampaignPoint) -> dict:
    """A :class:`CampaignPoint` as a JSON value.

    The budget-keyed dicts become ``[[budget, value], ...]`` pair lists
    because JSON object keys cannot be floats.
    """
    return {
        "auroc": point.auroc,
        "lift": [[b, v] for b, v in point.lift.items()],
        "precision": [[b, v] for b, v in point.precision.items()],
    }


def _point_from_payload(name: str, month: int, payload: dict) -> CampaignPoint:
    return CampaignPoint(
        model=name,
        month=month,
        auroc=float(payload["auroc"]),
        lift={float(b): float(v) for b, v in payload["lift"]},
        precision={float(b): float(v) for b, v in payload["precision"]},
    )


def compare_models(
    bundle: DatasetBundle,
    window_months: int = 2,
    alpha: float = 2.0,
    months: Sequence[int] = (20, 22, 24),
    budgets: Sequence[float] = BUDGETS,
    seed: int = 0,
    checkpoint_dir: str | Path | None = None,
) -> CampaignComparison:
    """Evaluate every implemented model at the given months and budgets.

    Trainable scorers (RFM, behavioural, sequence) are trained on a
    stratified half and scored on the other half; untrained scorers
    (stability, rules) are scored on the same test half.

    With a ``checkpoint_dir`` every finished ``(model, month)`` cell is
    journaled atomically; a rerun against the same directory skips the
    refits behind finished cells (a fully journaled stability row even
    skips the stability fit itself).
    """
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    protocol = EvaluationProtocol(
        bundle, config=config.evolve(first_month=min(months), last_month=max(months))
    )
    train, test = protocol.train_test_split(seed=seed)
    labels = {c: int(bundle.cohorts.is_churner(c)) for c in test}
    grid = WindowGrid.monthly(bundle.calendar, window_months)
    month_to_window = {
        grid.end_month(k, bundle.calendar): k for k in range(grid.n_windows)
    }
    for month in months:
        if month not in month_to_window:
            raise EvaluationError(f"no {window_months}-month window ends at month {month}")

    journal = (
        CheckpointJournal(checkpoint_dir, schema="campaign")
        if checkpoint_dir is not None
        else None
    )
    # The tag pins the configuration, the dataset content and the exact
    # train/test split, so a reused checkpoint_dir never aliases cells
    # from a different bundle, seed or cohort selection.
    tag = (
        f"w{window_months}_a{alpha:g}_s{seed}_"
        f"b{'-'.join(f'{b:g}' for b in budgets)}_"
        f"d{bundle.fingerprint()}_ids{ids_digest(train, test)}"
        if journal is not None
        else ""
    )

    def cell(
        name: str, month: int, compute: Callable[[], CampaignPoint]
    ) -> CampaignPoint:
        """One journaled campaign cell; a hit skips the scorer refit."""
        with span("eval.cell", scorer=name, month=month):
            if journal is None:
                return compute()
            key = ("campaign", name, f"m{month}", tag)
            payload = journal.get_or_compute(
                key, lambda: _point_to_payload(compute())
            )
        return _point_from_payload(name, month, payload)

    # Fitted lazily so a fully journaled rerun skips the fit entirely.
    _stability: StabilityModel | None = None

    def stability() -> StabilityModel:
        nonlocal _stability
        if _stability is None:
            _stability = StabilityModel(bundle.calendar, config=config).fit(
                bundle.log, test
            )
        return _stability

    trainable = {
        "rfm": RFMModel(bundle.calendar, config=config),
        "behavioral": BehavioralModel(bundle.calendar, window_months=window_months),
        "sequence": SequenceModel(bundle.calendar, window_months=window_months),
        "stability+rfm": RankAverageEnsemble(
            bundle.calendar,
            members=[
                StabilityMember(StabilityModel(bundle.calendar, config=config)),
                RFMModel(bundle.calendar, config=config),
            ],
            window_months=window_months,
        ),
    }
    rules = {
        "recency": RecencyRule(grid),
        "frequency-drop": FrequencyDropRule(grid),
        "random": RandomBaseline(seed=seed),
    }

    def fit_and_measure(
        name: str, model: WindowScorer, month: int, window: int
    ) -> CampaignPoint:
        model.fit(bundle.log, bundle.cohorts, window, train)
        return _campaign_metrics(
            name, month, model.churn_scores(bundle.log, test, window), labels, budgets
        )

    points: list[CampaignPoint] = []
    n_cells = len(months) * (1 + len(trainable) + len(rules))
    with progress(n_cells, "campaign comparison", log=logger) as reporter:
        for month in months:
            window = month_to_window[month]
            points.append(
                cell(
                    "stability",
                    month,
                    lambda k=window, m=month: _campaign_metrics(
                        "stability",
                        m,
                        stability().churn_scores(k, test),
                        labels,
                        budgets,
                    ),
                )
            )
            reporter.advance(key=f"stability m{month}")
            for name, model in trainable.items():
                points.append(
                    cell(
                        name,
                        month,
                        lambda n=name, mo=model, m=month, k=window: fit_and_measure(
                            n, mo, m, k
                        ),
                    )
                )
                reporter.advance(key=f"{name} m{month}")
            for name, rule in rules.items():
                points.append(
                    cell(
                        name,
                        month,
                        lambda n=name, r=rule, m=month, k=window: _campaign_metrics(
                            n,
                            m,
                            r.churn_scores(bundle.log, test, k),
                            labels,
                            budgets,
                        ),
                    )
                )
                reporter.advance(key=f"{name} m{month}")
    if journal is not None and (journal.hits or journal.misses or journal.invalid):
        logger.info("%s journal: %s", journal.schema, journal.resume_summary())
    return CampaignComparison(points=tuple(points), budgets=tuple(budgets))
