"""Seed-variance study: how stable are the reproduced curves?

The paper reports one run on one dataset.  A synthetic substrate lets us
quantify the sampling noise of the reproduction itself: regenerate the
population under several seeds, rerun Figure 1, and report the mean and
standard deviation of each model's AUROC per month.  EXPERIMENTS.md quotes
these intervals so single-run numbers are read with the right error bars.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.eval.figure1 import run_figure1
from repro.synth.generator import ScenarioConfig, generate_dataset

__all__ = ["VarianceSummary", "figure1_variance"]


@dataclass(frozen=True)
class VarianceSummary:
    """Mean and standard deviation of AUROC per month, per model."""

    months: tuple[int, ...]
    seeds: tuple[int, ...]
    stability_mean: dict[int, float]
    stability_std: dict[int, float]
    rfm_mean: dict[int, float]
    rfm_std: dict[int, float]

    def rows(self) -> list[tuple[int, str, str]]:
        """``(month, stability mean±std, rfm mean±std)`` for reporting."""
        return [
            (
                month,
                f"{self.stability_mean[month]:.3f} ± {self.stability_std[month]:.3f}",
                f"{self.rfm_mean[month]:.3f} ± {self.rfm_std[month]:.3f}",
            )
            for month in self.months
        ]


def figure1_variance(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    n_loyal: int = 80,
    n_churners: int = 80,
    window_months: int = 2,
    alpha: float = 2.0,
) -> VarianceSummary:
    """Run Figure 1 across several dataset seeds and aggregate.

    The split seed is tied to the dataset seed so every run is fully
    independent.
    """
    if len(seeds) < 2:
        raise ConfigError("variance needs at least two seeds")
    config = ExperimentConfig(window_months=window_months, alpha=alpha)
    per_month_stability: dict[int, list[float]] = {}
    per_month_rfm: dict[int, list[float]] = {}
    for seed in seeds:
        dataset = generate_dataset(
            ScenarioConfig(n_loyal=n_loyal, n_churners=n_churners, seed=seed)
        )
        result = run_figure1(dataset.bundle, seed=seed, config=config)
        for month, stab, rfm in result.rows():
            per_month_stability.setdefault(month, []).append(stab)
            per_month_rfm.setdefault(month, []).append(rfm)
    months = tuple(sorted(per_month_stability))
    return VarianceSummary(
        months=months,
        seeds=tuple(seeds),
        stability_mean={
            m: float(np.mean(per_month_stability[m])) for m in months
        },
        stability_std={m: float(np.std(per_month_stability[m])) for m in months},
        rfm_mean={m: float(np.mean(per_month_rfm[m])) for m in months},
        rfm_std={m: float(np.std(per_month_rfm[m])) for m in months},
    )
