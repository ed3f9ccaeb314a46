"""The paper's contribution: the customer-stability attrition model.

Layered exactly as Section 2 of the paper:

* :mod:`repro.core.windowing` — the windowed database ``D_i^w``;
* :mod:`repro.core.significance` — item significance ``S(p, k)``;
* :mod:`repro.core.stability` — per-window stability and trajectories;
* :mod:`repro.core.batch` — the columnar kernel that computes them;
* :mod:`repro.core.explanation` — argmax / top-K missing-item explanations;
* :mod:`repro.core.detector` — the beta-threshold defection rule;
* :mod:`repro.core.model` — the :class:`StabilityModel` facade;
* :mod:`repro.core.tuning` — the paper's 5-fold CV parameter search.
"""

from repro.core.batch import (
    BatchStability,
    Scoring,
    significance_from_counts,
    stability_matrix,
)
from repro.core.characterization import (
    LossEvent,
    PopulationLossProfile,
    SegmentLossSummary,
    classify_loss,
    loss_events,
    profile_population,
)
from repro.core.detector import Alarm, ThresholdDetector
from repro.core.engines import frame_windowed_history
from repro.core.explanation import (
    DropExplanation,
    MissingItem,
    explain_drop,
    explain_trajectory,
    explain_window,
)
from repro.core.model import StabilityModel
from repro.core.significance import (
    COUNTING_SCHEMES,
    validate_alpha,
    ExponentialSignificance,
    FrequencyRatioSignificance,
    LinearSignificance,
    SignificanceFunction,
)
from repro.core.stability import StabilityTrajectory, WindowStability
from repro.core.streaming import StabilityMonitor, WindowCloseReport
from repro.core.trend import TrendForecast, forecast_stability, rank_by_risk
from repro.core.tuning import TuningOutcome, tune_stability_model
from repro.core.windowing import Window, WindowGrid, windowed_history

__all__ = [
    "Alarm",
    "BatchStability",
    "COUNTING_SCHEMES",
    "Scoring",
    "frame_windowed_history",
    "significance_from_counts",
    "stability_matrix",
    "validate_alpha",
    "DropExplanation",
    "LossEvent",
    "PopulationLossProfile",
    "SegmentLossSummary",
    "StabilityMonitor",
    "WindowCloseReport",
    "classify_loss",
    "loss_events",
    "profile_population",
    "ExponentialSignificance",
    "FrequencyRatioSignificance",
    "LinearSignificance",
    "MissingItem",
    "SignificanceFunction",
    "StabilityModel",
    "StabilityTrajectory",
    "ThresholdDetector",
    "TrendForecast",
    "TuningOutcome",
    "forecast_stability",
    "rank_by_risk",
    "Window",
    "WindowGrid",
    "WindowStability",
    "explain_drop",
    "explain_trajectory",
    "explain_window",
    "tune_stability_model",
    "windowed_history",
]
