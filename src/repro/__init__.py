"""repro — reproduction of "Understanding Customer Attrition at an
Individual Level: a New Model in Grocery Retail Context" (Gautrais,
Cellier, Guyet, Quiniou, Termier — EDBT 2016).

The package implements the paper's customer-stability attrition model and
everything it needs to be evaluated end to end:

* :mod:`repro.core` — the stability model: windowed databases, item
  significance, stability trajectories, explanations, detection, tuning;
* :mod:`repro.data` — the transaction substrate: baskets, logs, catalog,
  taxonomy, cohorts, serialisation;
* :mod:`repro.synth` — the synthetic grocery retailer replacing the
  paper's proprietary dataset;
* :mod:`repro.baselines` — the RFM comparator and naive rules;
* :mod:`repro.ml` — from-scratch logistic regression, metrics and CV;
* :mod:`repro.eval` — the Figure 1 / Figure 2 / statistics / ablation
  experiments;
* :mod:`repro.viz` — terminal charts and series export.

Quickstart
----------
>>> from repro import ExperimentConfig, StabilityModel, paper_scenario
>>> dataset = paper_scenario(n_loyal=20, n_churners=20)
>>> config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
>>> model = StabilityModel(dataset.calendar, config=config).fit(dataset.log)
>>> scores = model.churn_scores(window_index=9)  # window ending month 20
"""

import logging as _logging

from repro.baselines import RFMModel
from repro.config import ExperimentConfig
from repro.core import (
    ExponentialSignificance,
    StabilityModel,
    StabilityTrajectory,
    ThresholdDetector,
    tune_stability_model,
)
from repro.data import (
    Basket,
    Catalog,
    CohortLabels,
    DatasetBundle,
    PopulationFrame,
    StudyCalendar,
    Taxonomy,
    TransactionLog,
)
from repro.eval import run_figure1, run_figure2
from repro.synth import ScenarioConfig, figure2_case_study, generate_dataset, paper_scenario

__version__ = "1.0.0"

# Library logging etiquette: the package root gets a NullHandler so
# importing repro never prints; applications (and the repro CLI's
# ``-v``/``-vv`` flags) decide what to surface.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [
    "Basket",
    "Catalog",
    "CohortLabels",
    "DatasetBundle",
    "ExperimentConfig",
    "ExponentialSignificance",
    "PopulationFrame",
    "RFMModel",
    "ScenarioConfig",
    "StabilityModel",
    "StabilityTrajectory",
    "StudyCalendar",
    "Taxonomy",
    "ThresholdDetector",
    "TransactionLog",
    "__version__",
    "figure2_case_study",
    "generate_dataset",
    "paper_scenario",
    "run_figure1",
    "run_figure2",
    "tune_stability_model",
]
