"""Evaluation harness reproducing the paper's experiments.

* E1 / Figure 1 — :mod:`repro.eval.figure1`
* E2 / Figure 2 — :mod:`repro.eval.figure2`
* E3 / dataset statistics — :mod:`repro.eval.tables`
* A1-A3 ablations — :mod:`repro.eval.ablations`
* shared protocol — :mod:`repro.eval.protocol`
* text rendering — :mod:`repro.eval.reporting`
"""

from repro.eval.ablations import (
    AblationPoint,
    ExplanationQuality,
    alpha_sweep,
    explanation_quality,
    significance_function_sweep,
    window_sweep,
)
from repro.eval.benchmarking import (
    render_scaling,
    scaling_telemetry,
    time_fit,
)
from repro.eval.campaign import CampaignComparison, CampaignPoint, compare_models
from repro.eval.customer_report import (
    CustomerReport,
    build_customer_report,
    render_customer_report,
)
from repro.eval.delay import DelayAnalysis, calibrate_beta, detection_delay
from repro.eval.figure1 import Figure1Result, run_figure1
from repro.eval.forecasting import ForecastEvaluation, evaluate_forecasts
from repro.eval.figure2 import Figure2Result, run_figure2
from repro.eval.power import PowerAnalysis, PowerPoint, power_analysis
from repro.eval.protocol import EvaluationProtocol, MonthScore, ScoreSeries
from repro.eval.robustness import (
    MechanismResult,
    VacationPoint,
    mechanism_crossover,
    vacation_sensitivity,
)
from repro.eval.reporting import (
    format_table,
    render_ablation,
    render_campaign,
    render_dataset_stats,
    render_delay,
    render_explanation_quality,
    render_figure1,
    render_figure2,
    render_mechanisms,
    render_variance,
)
from repro.eval.tables import DatasetStats, dataset_stats
from repro.eval.variance import VarianceSummary, figure1_variance

__all__ = [
    "AblationPoint",
    "CampaignComparison",
    "CampaignPoint",
    "CustomerReport",
    "DatasetStats",
    "build_customer_report",
    "render_customer_report",
    "DelayAnalysis",
    "MechanismResult",
    "PowerAnalysis",
    "PowerPoint",
    "VacationPoint",
    "VarianceSummary",
    "power_analysis",
    "figure1_variance",
    "calibrate_beta",
    "compare_models",
    "render_scaling",
    "scaling_telemetry",
    "time_fit",
    "detection_delay",
    "mechanism_crossover",
    "vacation_sensitivity",
    "EvaluationProtocol",
    "ExplanationQuality",
    "Figure1Result",
    "Figure2Result",
    "ForecastEvaluation",
    "evaluate_forecasts",
    "MonthScore",
    "ScoreSeries",
    "alpha_sweep",
    "dataset_stats",
    "explanation_quality",
    "format_table",
    "render_ablation",
    "render_campaign",
    "render_dataset_stats",
    "render_delay",
    "render_explanation_quality",
    "render_figure1",
    "render_figure2",
    "render_mechanisms",
    "render_variance",
    "run_figure1",
    "run_figure2",
    "significance_function_sweep",
    "window_sweep",
]
