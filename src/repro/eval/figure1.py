"""Experiment E1 — Figure 1: attrition-detection AUROC over time.

Reproduces the paper's Figure 1: the AUROC of the stability model and of
the RFM model at every 2-month window whose end falls between month 12 and
month 24, on a population of loyal customers and customers defecting from
month 18.  The paper reports ~0.79 AUROC for the stability model two
months after the onset and "similar performances" for RFM.

The stability model is unsupervised (no trainable parameters), so it is
scored on the full test population; the RFM model is trained on a
disjoint, stratified training split at each window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.rfm import RFMModel
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.data.validation import DatasetBundle
from repro.eval.protocol import EvaluationProtocol, ScoreSeries
from repro.runtime.executor import ExecutionReport

__all__ = ["Figure1Result", "run_figure1"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Figure1Result:
    """The two AUROC curves of Figure 1 plus the experiment's metadata.

    ``execution`` carries the resilient executor's report for sharded
    stability fits (``None`` for serial fits).
    """

    stability: ScoreSeries
    rfm: ScoreSeries
    onset_month: int
    window_months: int
    alpha: float
    execution: ExecutionReport | None = field(default=None, compare=False)

    def months(self) -> list[int]:
        return self.stability.months()

    def rows(self) -> list[tuple[int, float, float]]:
        """``(month, stability_auroc, rfm_auroc)`` rows for reporting."""
        rfm_by_month = {p.month: p.auroc for p in self.rfm.points}
        return [
            (p.month, p.auroc, rfm_by_month[p.month])
            for p in self.stability.points
            if p.month in rfm_by_month
        ]


def run_figure1(
    bundle: DatasetBundle,
    *,
    test_fraction: float = 0.5,
    seed: int = 0,
    config: ExperimentConfig | None = None,
    checkpoint_dir: str | Path | None = None,
) -> Figure1Result:
    """Run the Figure 1 experiment on a dataset bundle.

    ``config`` defaults to the paper's values (``ExperimentConfig()``):
    ``window_months=2`` and ``alpha=2``, which its 5-fold CV selected,
    and an x axis from month 12 to 24.  ``test_fraction``
    controls the stratified split the RFM model is trained/evaluated
    across; the stability model is evaluated on the same test customers
    so both curves measure the same population.

    The bundle's log is encoded into one
    :class:`~repro.data.population.PopulationFrame` shared by the
    stability fit and every per-window RFM refit.  With a
    ``checkpoint_dir`` every finished (scorer, month) AUROC cell is
    journaled atomically, so a killed run restarted against the same
    directory resumes without recomputing finished cells (including the
    per-window RFM refits).
    """
    config = config if config is not None else ExperimentConfig()
    protocol = EvaluationProtocol(
        bundle, config=config, checkpoint_dir=checkpoint_dir
    )
    train_ids, test_ids = protocol.train_test_split(
        test_fraction=test_fraction, seed=seed
    )

    stability_model = StabilityModel(bundle.calendar, config=config).fit(
        protocol.frame()
    )
    execution = stability_model.execution_report
    if execution is not None:
        logger.info("stability fit: %s", execution.summary())
    stability_series = protocol.evaluate_stability_model(stability_model, test_ids)

    rfm_model = RFMModel(bundle.calendar, config=config)
    rfm_series = protocol.evaluate_window_scorer(rfm_model, "rfm", train_ids, test_ids)
    protocol.log_resume_summary()

    return Figure1Result(
        stability=stability_series,
        rfm=rfm_series,
        onset_month=bundle.cohorts.onset_month,
        window_months=config.window_months,
        alpha=config.alpha,
        execution=execution,
    )
