"""Robustness studies: churn mechanisms and vacation gaps.

Two questions the paper's single-dataset evaluation cannot answer, but a
synthetic substrate can:

1. **Mechanism crossover** (:func:`mechanism_crossover`) — the stability
   model reads basket *content*; RFM reads shopping *volume*.  When churn
   is pure item loss, stability should dominate; when churn is pure
   trip-rate decay (same repertoire, fewer trips), RFM should catch up or
   win.  The study runs both models on each mechanism preset and reports
   the AUROC grid — locating the crossover the Figure 1 comparison hints
   at.
2. **Vacation sensitivity** (:func:`vacation_sensitivity`) — a loyal
   customer on a long holiday produces an empty window, which any
   windowed model reads as defection.  The study sweeps the fraction of
   vacationing customers and measures AUROC degradation and the loyal
   false-alarm rate at a fixed beta.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.baselines.rfm import RFMModel
from repro.config import ExperimentConfig
from repro.core.detector import ThresholdDetector
from repro.core.model import StabilityModel
from repro.eval.protocol import EvaluationProtocol
from repro.obs import span
from repro.obs.progress import progress
from repro.runtime.checkpoint import CheckpointJournal
from repro.synth.generator import ScenarioConfig, generate_dataset
from repro.synth.scenarios import ATTRITION_MECHANISMS, mechanism_scenario

__all__ = [
    "MechanismResult",
    "mechanism_crossover",
    "VacationPoint",
    "vacation_sensitivity",
]

logger = logging.getLogger(__name__)


def _log_resume_summary(journal: CheckpointJournal | None) -> None:
    if journal is not None and (journal.hits or journal.misses or journal.invalid):
        logger.info("%s journal: %s", journal.schema, journal.resume_summary())


@dataclass(frozen=True)
class MechanismResult:
    """AUROC of both models under one churn mechanism."""

    mechanism: str
    stability_auroc: dict[int, float]  # month -> auroc
    rfm_auroc: dict[int, float]

    def stability_wins_at(self, month: int) -> bool:
        return self.stability_auroc[month] > self.rfm_auroc[month]


def mechanism_crossover(
    n_loyal: int = 100,
    n_churners: int = 100,
    months: Sequence[int] = (20, 22, 24),
    window_months: int = 2,
    alpha: float = 2.0,
    seed: int = 7,
    checkpoint_dir: str | Path | None = None,
) -> list[MechanismResult]:
    """Run stability vs RFM on every churn-mechanism preset.

    With a ``checkpoint_dir`` each finished mechanism is journaled as one
    cell; a rerun against the same directory skips that mechanism's
    dataset generation and both fits entirely.
    """
    journal = (
        CheckpointJournal(checkpoint_dir, schema="robustness")
        if checkpoint_dir is not None
        else None
    )

    def run_mechanism(mechanism: str) -> dict:
        dataset = mechanism_scenario(
            mechanism, n_loyal=n_loyal, n_churners=n_churners, seed=seed
        )
        config = ExperimentConfig(
            window_months=window_months,
            alpha=alpha,
            first_month=min(months),
            last_month=max(months),
        )
        protocol = EvaluationProtocol(dataset.bundle, config=config)
        train, test = protocol.train_test_split(seed=seed)
        stability = StabilityModel(dataset.calendar, config=config).fit(
            protocol.frame()
        )
        stability_series = protocol.evaluate_stability_model(stability, test)
        rfm = RFMModel(dataset.calendar, config=config)
        rfm_series = protocol.evaluate_window_scorer(rfm, "rfm", train, test)
        # month -> auroc maps as pair lists: JSON keys cannot be ints.
        return {
            "stability": [[m, stability_series.at_month(m)] for m in months],
            "rfm": [[m, rfm_series.at_month(m)] for m in months],
        }

    results = []
    mechanisms = sorted(ATTRITION_MECHANISMS)
    reporter = progress(len(mechanisms), "mechanism crossover", log=logger)
    for mechanism in mechanisms:
        with span("eval.cell", sweep="mechanism_crossover", label=mechanism):
            if journal is None:
                payload = run_mechanism(mechanism)
            else:
                key = (
                    "mechanism_crossover",
                    mechanism,
                    f"w{window_months}_a{alpha:g}_s{seed}_"
                    f"n{n_loyal}-{n_churners}_"
                    f"m{'-'.join(str(m) for m in months)}",
                )
                payload = journal.get_or_compute(
                    key, lambda m=mechanism: run_mechanism(m)
                )
        reporter.advance(key=mechanism)
        results.append(
            MechanismResult(
                mechanism=mechanism,
                stability_auroc={int(m): float(v) for m, v in payload["stability"]},
                rfm_auroc={int(m): float(v) for m, v in payload["rfm"]},
            )
        )
    reporter.finish()
    _log_resume_summary(journal)
    return results


@dataclass(frozen=True)
class VacationPoint:
    """Model health at one vacation prevalence level."""

    vacation_prob: float
    auroc: float
    loyal_false_alarm_rate: float


def vacation_sensitivity(
    vacation_probs: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
    n_loyal: int = 80,
    n_churners: int = 80,
    eval_month: int = 22,
    beta: float = 0.5,
    window_months: int = 2,
    seed: int = 7,
    vacation_duration_days: tuple[int, int] = (45, 75),
    checkpoint_dir: str | Path | None = None,
) -> list[VacationPoint]:
    """Sweep the fraction of customers taking a long vacation.

    The default duration range (45–75 days) guarantees some vacations
    span an entire 2-month window — the worst case for a windowed model:
    an empty window scores stability 0 and must trip any threshold.
    AUROC is measured at ``eval_month``; the false-alarm rate is the
    fraction of loyal customers tripping the fixed-``beta`` detector at
    any window from month 12 on.

    With a ``checkpoint_dir`` each finished prevalence level is journaled
    as one cell and its dataset generation and fit are skipped on rerun.
    """
    journal = (
        CheckpointJournal(checkpoint_dir, schema="robustness")
        if checkpoint_dir is not None
        else None
    )

    def run_prob(prob: float) -> dict:
        dataset = generate_dataset(
            ScenarioConfig(
                n_loyal=n_loyal,
                n_churners=n_churners,
                seed=seed,
                vacation_prob=prob,
                vacation_duration_days=vacation_duration_days,
            )
        )
        customers = dataset.cohorts.all_customers()
        config = ExperimentConfig(
            window_months=window_months,
            first_month=eval_month,
            last_month=eval_month,
        )
        protocol = EvaluationProtocol(dataset.bundle, config=config)
        model = StabilityModel(dataset.calendar, config=config).fit(
            protocol.frame()
        )
        series = protocol.evaluate_stability_model(model, customers)
        detector = ThresholdDetector(beta)
        first_window = next(
            k for k in range(model.n_windows) if model.window_month(k) >= 12
        )
        loyal = sorted(dataset.cohorts.loyal)
        false_alarms = sum(
            1
            for customer in loyal
            if detector.first_alarm(model.trajectory(customer), first_window)
            is not None
        )
        return {
            "auroc": series.at_month(eval_month),
            "loyal_false_alarm_rate": false_alarms / len(loyal),
        }

    points = []
    with progress(len(vacation_probs), "vacation sensitivity", log=logger) as reporter:
        for prob in vacation_probs:
            label = f"p{float(prob):g}"
            with span("eval.cell", sweep="vacation_sensitivity", label=label):
                if journal is None:
                    payload = run_prob(prob)
                else:
                    key = (
                        "vacation_sensitivity",
                        label,
                        f"w{window_months}_b{beta:g}_s{seed}_m{eval_month}_"
                        f"n{n_loyal}-{n_churners}_"
                        f"d{vacation_duration_days[0]}-{vacation_duration_days[1]}",
                    )
                    payload = journal.get_or_compute(key, lambda p=prob: run_prob(p))
            reporter.advance(key=label)
            points.append(
                VacationPoint(
                    vacation_prob=float(prob),
                    auroc=float(payload["auroc"]),
                    loyal_false_alarm_rate=float(payload["loyal_false_alarm_rate"]),
                )
            )
    _log_resume_summary(journal)
    return points
