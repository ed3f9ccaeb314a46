"""Statistical power of the evaluation: how many customers are enough?

The paper evaluates on millions of customers; this reproduction runs at
laptop scale, so a practitioner needs to know how small a cohort can get
before the AUROC estimate becomes noise.  :func:`power_analysis` measures
the across-seed standard deviation of the month-20 AUROC at several cohort
sizes and reports the smallest size whose std falls under a target.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.errors import ConfigError
from repro.eval.protocol import EvaluationProtocol
from repro.synth.generator import ScenarioConfig, generate_dataset

__all__ = ["PowerPoint", "PowerAnalysis", "power_analysis"]


@dataclass(frozen=True, slots=True)
class PowerPoint:
    """AUROC statistics at one cohort size."""

    n_per_cohort: int
    mean_auroc: float
    std_auroc: float


@dataclass(frozen=True)
class PowerAnalysis:
    """The full size sweep plus the recommendation."""

    points: tuple[PowerPoint, ...]
    eval_month: int
    target_std: float
    recommended_n: int | None

    def rows(self) -> list[tuple[int, str, str]]:
        return [
            (p.n_per_cohort, f"{p.mean_auroc:.3f}", f"{p.std_auroc:.3f}")
            for p in self.points
        ]


def _auroc_once(
    n_per_cohort: int, seed: int, eval_month: int, window_months: int, alpha: float
) -> float:
    dataset = generate_dataset(
        ScenarioConfig(n_loyal=n_per_cohort, n_churners=n_per_cohort, seed=seed)
    )
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    protocol = EvaluationProtocol(
        dataset.bundle,
        config=config.evolve(first_month=eval_month, last_month=eval_month),
    )
    customers = dataset.cohorts.all_customers()
    model = StabilityModel(dataset.calendar, config=config).fit(
        dataset.log, customers
    )
    return protocol.evaluate_stability_model(model, customers).at_month(eval_month)


def power_analysis(
    cohort_sizes: Sequence[int] = (10, 20, 40, 80),
    seeds: Sequence[int] = (1, 2, 3, 4),
    eval_month: int = 20,
    target_std: float = 0.05,
    window_months: int = 2,
    alpha: float = 2.0,
) -> PowerAnalysis:
    """Sweep cohort sizes and recommend the smallest reliable one.

    ``recommended_n`` is the smallest size whose across-seed AUROC std is
    at or below ``target_std`` (``None`` if no size qualifies).
    """
    if not cohort_sizes or not seeds:
        raise ConfigError("cohort_sizes and seeds must be non-empty")
    if len(seeds) < 2:
        raise ConfigError("power analysis needs at least two seeds")
    points = []
    for size in sorted(cohort_sizes):
        aurocs = [
            _auroc_once(size, seed, eval_month, window_months, alpha)
            for seed in seeds
        ]
        points.append(
            PowerPoint(
                n_per_cohort=int(size),
                mean_auroc=float(np.mean(aurocs)),
                std_auroc=float(np.std(aurocs)),
            )
        )
    recommended = next(
        (p.n_per_cohort for p in points if p.std_auroc <= target_std), None
    )
    return PowerAnalysis(
        points=tuple(points),
        eval_month=eval_month,
        target_std=target_std,
        recommended_n=recommended,
    )
