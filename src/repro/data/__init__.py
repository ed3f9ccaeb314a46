"""Transaction data substrate: baskets, logs, catalogs, taxonomy, cohorts.

This package plays the role of the retailer's database in the paper: it
stores timestamped receipts per customer, the product catalog with its
segment taxonomy, and the loyal/churner cohort labels the retailer
provided.
"""

from repro.data.basket import Basket
from repro.data.calendar import PAPER_STUDY_MONTHS, PAPER_STUDY_START, StudyCalendar
from repro.data.cohorts import CohortLabels
from repro.data.io import iter_log_csv
from repro.data.items import Catalog, Product, Segment
from repro.data.population import PopulationFrame, range_segment_sums
from repro.data.loyalty import (
    LoyaltyCriteria,
    build_cohorts,
    label_partial_defection,
    select_loyal,
)
from repro.data.quality import QualityReport, profile_log, render_quality_report
from repro.data.taxonomy import Taxonomy, TaxonomyNode
from repro.data.transactions import ColumnarLog, TransactionLog
from repro.data.validation import DatasetBundle, validate_bundle

__all__ = [
    "Basket",
    "Catalog",
    "CohortLabels",
    "DatasetBundle",
    "LoyaltyCriteria",
    "QualityReport",
    "build_cohorts",
    "profile_log",
    "render_quality_report",
    "iter_log_csv",
    "label_partial_defection",
    "select_loyal",
    "PAPER_STUDY_MONTHS",
    "PAPER_STUDY_START",
    "Product",
    "Segment",
    "StudyCalendar",
    "Taxonomy",
    "TaxonomyNode",
    "ColumnarLog",
    "PopulationFrame",
    "TransactionLog",
    "range_segment_sums",
    "validate_bundle",
]
