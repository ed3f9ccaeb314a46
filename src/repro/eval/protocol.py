"""The evaluation protocol shared by Figure 1 and the ablations.

Section 3.1 of the paper: at each evaluation window, both models produce a
churn score per customer; the AUROC of those scores against the
loyal/churner cohort labels measures discrimination ability.  The paper
plots AUROC against "number of months" from month 12 to month 24 with
2-month windows — i.e. at every window whose end falls in that range.

:class:`EvaluationProtocol` fixes the window grid, the evaluation months
and the customer split, and evaluates any scorer implementing the small
``churn_scores`` duck type.

The protocol is a :class:`~repro.data.population.PopulationFrame`
consumer: the bundle's log is encoded into columnar form **once**
(:meth:`EvaluationProtocol.frame`) and every frame-aware scorer
(``supports_frame = True``) is fed that frame instead of the raw log, so
a full ROC sweep re-derives no per-customer windowed dictionaries.

With a ``checkpoint_dir`` the protocol is also *resumable*: every
finished ``(scorer, month, config)`` cell is journaled atomically
through a :class:`~repro.runtime.checkpoint.CheckpointJournal`, so a
killed sweep restarted against the same directory skips straight past
completed cells (including the per-window scorer refits they imply).
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.config import ExperimentConfig
from repro.data.cohorts import CohortLabels
from repro.data.population import PopulationFrame
from repro.data.validation import DatasetBundle
from repro.errors import ConfigError, EvaluationError
from repro.ml.metrics import auroc
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.obs.progress import progress
from repro.runtime.checkpoint import CheckpointJournal, ids_digest

__all__ = [
    "MonthScore",
    "ScoreSeries",
    "EvaluationProtocol",
    "GridScorer",
    "WindowScorer",
    "StabilityScorer",
    "RuleScorer",
]

logger = logging.getLogger(__name__)


class GridScorer(Protocol):
    """The window-grid duck type every evaluated scorer shares."""

    @property
    def n_windows(self) -> int: ...

    def window_month(self, window_index: int) -> int: ...


class WindowScorer(GridScorer, Protocol):
    """A trainable per-window scorer (the RFM/behavioral family):
    re-fitted per evaluation window on the train split, scored on test.
    ``log`` is the raw transaction log or the shared frame, depending
    on ``supports_frame``."""

    def fit(
        self,
        log: object,
        cohorts: CohortLabels,
        window_index: int,
        customers: Sequence[int],
    ) -> object: ...

    def churn_scores(
        self, log: object, customers: Sequence[int], window_index: int
    ) -> dict[int, float]: ...


class StabilityScorer(GridScorer, Protocol):
    """A fitted stability-style model: scores straight off its state."""

    def churn_scores(
        self, window_index: int, customers: Sequence[int]
    ) -> dict[int, float]: ...


class RuleScorer(Protocol):
    """An untrained rule baseline (no fit, no grid of its own)."""

    def churn_scores(
        self, log: object, customers: Sequence[int], window_index: int
    ) -> dict[int, float]: ...


@dataclass(frozen=True, slots=True)
class MonthScore:
    """AUROC of one scorer at one evaluation month."""

    month: int
    window_index: int
    auroc: float


@dataclass(frozen=True)
class ScoreSeries:
    """AUROC series of one scorer across the evaluation months."""

    name: str
    points: tuple[MonthScore, ...]

    def months(self) -> list[int]:
        return [p.month for p in self.points]

    def values(self) -> list[float]:
        return [p.auroc for p in self.points]

    def at_month(self, month: int) -> float:
        """AUROC at a specific month.

        Raises
        ------
        EvaluationError
            If the series has no point at that month.
        """
        for point in self.points:
            if point.month == month:
                return point.auroc
        raise EvaluationError(f"series {self.name!r} has no point at month {month}")


class EvaluationProtocol:
    """Month-indexed AUROC evaluation of churn scorers.

    Parameters
    ----------
    bundle:
        The dataset (log, calendar, cohorts) under evaluation.
    config:
        The shared :class:`~repro.config.ExperimentConfig` (default:
        ``ExperimentConfig()``).  Its ``window_months`` spans the shared
        evaluation windows (paper: 2), and ``first_month`` /
        ``last_month`` bound the x axis inclusively (paper: 12 to 24):
        only windows whose *end* month falls inside the range are
        evaluated.
    frame:
        Optional pre-built :class:`~repro.data.population.PopulationFrame`
        (e.g. a memory-mapped slab-backed frame) used instead of lazily
        encoding ``bundle.log``; its grid must match the config's.
    checkpoint_dir:
        Optional journal directory making the evaluation resumable:
        each finished ``(scorer, month, config)`` AUROC cell is written
        atomically the moment it completes, and a rerun against the
        same directory skips finished cells without recomputation.
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        *,
        config: ExperimentConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        frame: PopulationFrame | None = None,
    ) -> None:
        config = config if config is not None else ExperimentConfig()
        self.config = config
        self.bundle = bundle
        self.window_months = config.window_months
        self.first_month = config.first_month
        self.last_month = config.last_month
        self.checkpoint_dir = checkpoint_dir
        self._journal: CheckpointJournal | None = None
        if frame is not None and frame.grid != config.grid(bundle.calendar):
            raise ConfigError(
                "injected frame's grid does not match the protocol's "
                "config; build it with the same ExperimentConfig"
            )
        self._frame: PopulationFrame | None = frame

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def journal(self) -> CheckpointJournal | None:
        """The cell journal (``None`` without a ``checkpoint_dir``)."""
        if self.checkpoint_dir is None:
            return None
        if self._journal is None:
            self._journal = CheckpointJournal(
                self.checkpoint_dir, schema="eval-protocol"
            )
        return self._journal

    def _config_tag(self) -> str:
        """Cell-key component pinning the evaluated configuration *and*
        dataset, so a journal directory reused with different knobs — or
        against a differently-seeded/sized bundle — never aliases."""
        c = self.config
        return (
            f"w{c.window_months}_a{c.alpha:g}_{c.backend}_{c.counting}_"
            f"m{c.first_month}-{c.last_month}_d{self.bundle.fingerprint()}"
        )

    def _cell(
        self, name: str, month: int, split: str, compute: Callable[[], float]
    ) -> float:
        """One journaled AUROC cell: load when finished, else compute
        and persist atomically before returning.

        ``split`` is an :func:`~repro.runtime.checkpoint.ids_digest` of
        the customer sets the cell is computed on, so a different
        train/test split (seed, fraction) or cohort selection maps to a
        different cell instead of replaying a stale one.
        """
        metrics = obs_metrics.get_metrics()
        journal = self.journal()
        with span("eval.cell", scorer=name, month=month):
            if journal is None:
                metrics.counter(obs_metrics.CELLS_COMPUTED).inc()
                return compute()
            key = (name, f"month={month}", f"ids={split}", self._config_tag())
            misses = journal.misses
            value = float(journal.get_or_compute(key, lambda: float(compute())))
        if journal.misses > misses:
            metrics.counter(obs_metrics.CELLS_COMPUTED).inc()
        else:
            metrics.counter(obs_metrics.CELLS_REPLAYED).inc()
        return value

    def log_resume_summary(self) -> None:
        """Log one line of journal traffic (no-op without a journal).

        E.g. ``"eval-protocol journal: replayed 84 cell(s), computed
        36"`` — emitted at INFO by the sweeps (figure1, ablations, the
        campaign) once their cells are done.
        """
        journal = self._journal
        if journal is not None and (journal.hits or journal.misses or journal.invalid):
            logger.info("%s journal: %s", journal.schema, journal.resume_summary())

    def frame(self) -> PopulationFrame:
        """The bundle's columnar frame on the protocol's grid.

        Built lazily on first use and cached: every frame-aware scorer
        in the evaluation shares this one encoding of the log.
        """
        if self._frame is None:
            grid = self.config.grid(self.bundle.calendar)
            self._frame = PopulationFrame.from_log(self.bundle.log, grid)
        return self._frame

    def _scorer_source(self, scorer: object) -> PopulationFrame | object:
        """What to feed a scorer: the shared frame when it understands
        frames, the raw log otherwise (legacy duck type)."""
        if getattr(scorer, "supports_frame", False):
            return self.frame()
        return self.bundle.log

    # ------------------------------------------------------------------
    def evaluation_windows(self, scorer: GridScorer) -> list[tuple[int, int]]:
        """``(window_index, end_month)`` pairs inside the month range.

        ``scorer`` must expose ``n_windows`` and ``window_month`` (both
        the stability and RFM models share one grid shape, but the
        protocol asks the scorer so mismatched grids fail loudly).
        """
        pairs = [
            (k, scorer.window_month(k))
            for k in range(scorer.n_windows)
            if self.first_month <= scorer.window_month(k) <= self.last_month
        ]
        if not pairs:
            raise EvaluationError(
                f"no evaluation window ends within months "
                f"[{self.first_month}, {self.last_month}]"
            )
        return pairs

    def auroc_of_scores(
        self, scores: dict[int, float], customers: Sequence[int] | None = None
    ) -> float:
        """AUROC of a score dict against the bundle's cohort labels."""
        cohorts: CohortLabels = self.bundle.cohorts
        ids = sorted(scores) if customers is None else list(customers)
        y_true = cohorts.label_vector(ids)
        y_score = np.asarray([scores[c] for c in ids], dtype=np.float64)
        return auroc(y_true, y_score)

    def evaluate_stability_model(
        self, model: StabilityScorer, customers: Iterable[int] | None = None
    ) -> ScoreSeries:
        """AUROC series of a fitted :class:`~repro.core.model.StabilityModel`."""
        ids = (
            sorted(customers)
            if customers is not None
            else self.bundle.cohorts.all_customers()
        )
        split = ids_digest(ids)
        windows = self.evaluation_windows(model)
        points = []
        with progress(len(windows), "eval stability", log=logger) as reporter:
            for window_index, month in windows:
                value = self._cell(
                    "stability",
                    month,
                    split,
                    lambda k=window_index: self.auroc_of_scores(
                        model.churn_scores(k, ids), ids
                    ),
                )
                points.append(
                    MonthScore(month=month, window_index=window_index, auroc=value)
                )
                reporter.advance(key=f"month={month}")
        return ScoreSeries(name="stability", points=tuple(points))

    def evaluate_window_scorer(
        self,
        scorer: WindowScorer,
        name: str,
        train_customers: Sequence[int],
        test_customers: Sequence[int],
    ) -> ScoreSeries:
        """AUROC series of a trainable per-window scorer (e.g. the RFM model).

        The scorer must expose ``fit(log, cohorts, window_index, customers)``
        and ``churn_scores(log, customers, window_index)`` plus the grid
        duck type; it is re-fitted at every evaluation window on
        ``train_customers`` and scored on ``test_customers``.  A scorer
        with ``supports_frame = True`` receives the protocol's shared
        :class:`~repro.data.population.PopulationFrame` instead of the
        raw log.
        """
        log = self._scorer_source(scorer)
        cohorts = self.bundle.cohorts

        def fit_and_score(window_index: int) -> float:
            scorer.fit(log, cohorts, window_index, train_customers)
            scores = scorer.churn_scores(log, test_customers, window_index)
            return self.auroc_of_scores(scores, list(test_customers))

        split = ids_digest(train_customers, test_customers)
        windows = self.evaluation_windows(scorer)
        points = []
        with progress(len(windows), f"eval {name}", log=logger) as reporter:
            for window_index, month in windows:
                # A journaled cell skips the whole refit, not just the AUROC.
                value = self._cell(
                    name, month, split, lambda k=window_index: fit_and_score(k)
                )
                points.append(
                    MonthScore(month=month, window_index=window_index, auroc=value)
                )
                reporter.advance(key=f"month={month}")
        return ScoreSeries(name=name, points=tuple(points))

    def evaluate_rule(
        self, rule: RuleScorer, name: str, customers: Sequence[int] | None = None
    ) -> ScoreSeries:
        """AUROC series of an untrained rule baseline.

        The rule must expose ``churn_scores(log, customers, window_index)``;
        the window axis is taken from the protocol's own grid (rules carry
        a grid but no ``window_month``).
        """
        from repro.core.windowing import WindowGrid  # local: avoid cycle at import

        grid = WindowGrid.monthly(self.bundle.calendar, self.window_months)
        ids = (
            list(customers)
            if customers is not None
            else self.bundle.cohorts.all_customers()
        )
        source = self._scorer_source(rule)
        split = ids_digest(ids)
        months = [
            (k, grid.end_month(k, self.bundle.calendar))
            for k in range(grid.n_windows)
            if self.first_month
            <= grid.end_month(k, self.bundle.calendar)
            <= self.last_month
        ]
        points = []
        with progress(len(months), f"eval {name}", log=logger) as reporter:
            for window_index, month in months:
                value = self._cell(
                    name,
                    month,
                    split,
                    lambda k=window_index: self.auroc_of_scores(
                        rule.churn_scores(source, ids, k), ids
                    ),
                )
                points.append(
                    MonthScore(month=month, window_index=window_index, auroc=value)
                )
                reporter.advance(key=f"month={month}")
        if not points:
            raise EvaluationError(
                f"no evaluation window ends within months "
                f"[{self.first_month}, {self.last_month}]"
            )
        return ScoreSeries(name=name, points=tuple(points))

    def train_test_split(
        self, test_fraction: float = 0.5, seed: int = 0
    ) -> tuple[list[int], list[int]]:
        """Stratified customer split for trainable scorers.

        Keeps the loyal/churner ratio identical on both sides so AUROC is
        defined everywhere.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
        rng = np.random.default_rng(seed)
        cohorts = self.bundle.cohorts
        train: list[int] = []
        test: list[int] = []
        for group in (sorted(cohorts.loyal), sorted(cohorts.churners)):
            indices = np.asarray(group)
            rng.shuffle(indices)
            cut = int(round(len(indices) * test_fraction))
            cut = min(max(cut, 1), len(indices) - 1)
            test.extend(int(c) for c in indices[:cut])
            train.extend(int(c) for c in indices[cut:])
        return sorted(train), sorted(test)
