"""Experiment E2 — Figure 2: the individual-explanation case study.

Reproduces the paper's Figure 2: the stability trajectory of one defecting
customer who "is loyal in the first months, and defecting starting from
month 20", where the month-20 decrease is explained by a **coffee** loss
and the sharper month-22 decrease by **milk, sponge and cheese** losses.

The experiment runs the stability model on the injected case-study
customer and extracts, for each window past the onset, the top missing
segments that explain the decrease — then checks them against the
injected ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExperimentConfig
from repro.core.explanation import DropExplanation, explain_window
from repro.core.model import StabilityModel
from repro.synth.scenarios import CaseStudy, figure2_case_study

__all__ = ["Figure2Result", "run_figure2"]


@dataclass(frozen=True)
class Figure2Result:
    """The Figure 2 trajectory with per-drop explanations.

    Attributes
    ----------
    months:
        X axis: months elapsed at each window's end.
    stability:
        Stability value per window (``nan`` where undefined).
    explanations:
        ``{month: explanation}`` for each evaluated drop window.
    first_loss_names, second_loss_names:
        Ground-truth segment names lost at the two annotated drops.
    first_loss_month, second_loss_month:
        Months of the two annotated drops (20 and 22 in the paper).
    case:
        The underlying case-study fixture.
    """

    months: list[int]
    stability: list[float]
    explanations: dict[int, DropExplanation]
    first_loss_names: tuple[str, ...]
    second_loss_names: tuple[str, ...]
    first_loss_month: int
    second_loss_month: int
    case: CaseStudy

    def explained_names(self, month: int, top_k: int = 4) -> list[str]:
        """Names of the top-K newly-missing segments explained at a month."""
        explanation = self.explanations[month]
        ranked = explanation.newly_missing or explanation.missing
        return [
            self.case.catalog.segment(item.item).name for item in ranked[:top_k]
        ]


def run_figure2(
    *,
    seed: int = 11,
    case: CaseStudy | None = None,
    config: ExperimentConfig | None = None,
) -> Figure2Result:
    """Run the Figure 2 case study.

    ``case`` may be supplied to reuse a fixture; by default the canonical
    injected customer is generated (coffee lost in the window ending at
    month 20; milk, sponges and cheese in the window ending at month 22).
    ``config`` defaults to the paper's values (``ExperimentConfig()``);
    its ``first_month``/``last_month`` bound the plotted axis like the
    paper's Figure 2 (months 12 to 24).  The per-drop explanations read
    the full per-item significance snapshots of the customer's
    trajectory, built from the frame's columns.
    """
    case = case if case is not None else figure2_case_study(seed=seed)
    config = config if config is not None else ExperimentConfig()
    first_month, last_month = config.first_month, config.last_month
    model = StabilityModel(case.calendar, config=config).fit(
        case.log, [case.customer_id]
    )
    trajectory = model.trajectory(case.customer_id)

    months = []
    stability = []
    for k in range(model.n_windows):
        month = model.window_month(k)
        if first_month <= month <= last_month:
            months.append(month)
            stability.append(trajectory.at(k).stability)

    first_month = 20
    second_month = 22
    explanations: dict[int, DropExplanation] = {}
    for month in (first_month, second_month):
        # A loss during window k produces the stability decrease plotted
        # at that window's end month, so explain the window ending at m.
        for k in range(model.n_windows):
            if model.window_month(k) == month:
                explanations[month] = explain_window(trajectory, k)
                break

    first_names = tuple(
        case.catalog.segment(s).name for s in case.first_loss_segments
    )
    second_names = tuple(
        case.catalog.segment(s).name for s in case.second_loss_segments
    )
    return Figure2Result(
        months=months,
        stability=stability,
        explanations=explanations,
        first_loss_names=first_names,
        second_loss_names=second_names,
        first_loss_month=first_month,
        second_loss_month=second_month,
        case=case,
    )
