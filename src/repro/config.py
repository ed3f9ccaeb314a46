"""The one validated experiment configuration: :class:`ExperimentConfig`.

Before this module existed every layer re-declared the same knobs as
loose keyword arguments — ``alpha`` and ``window_months`` appeared in the
model, the evaluation protocol, the figures, the ablations, the RFM
baseline and the CLI, each with its own (or no) validation.
:class:`ExperimentConfig` is the single frozen dataclass they all share:
construct it once, validate it once, and pass it by reference down the
data → core → eval → baselines → cli spine.

The legacy keyword arguments still work everywhere for one release (they
are folded into a config internally); new code should build a config
explicitly::

    >>> config = ExperimentConfig(window_months=2, alpha=2.0, backend="batch")
    >>> config.window_months
    2
    >>> config.evolve(alpha=4.0).alpha
    4.0
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # imported lazily at runtime to keep repro.config
    # importable from inside repro.core modules without a cycle
    from repro.core.significance import ExponentialSignificance
    from repro.core.windowing import WindowGrid
    from repro.data.calendar import StudyCalendar

__all__ = ["ExperimentConfig", "DEFAULT_BETA_GRID"]

#: Default alarm-threshold sweep used by ROC-style analyses.
DEFAULT_BETA_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))

@dataclass(frozen=True)
class ExperimentConfig:
    """Every shared experiment knob, validated on construction.

    Attributes
    ----------
    window_months:
        Window span ``w`` in whole months (the paper uses 2).
    alpha:
        Base of the exponential significance rule (the paper uses 2);
        validated through :func:`~repro.core.significance.validate_alpha`
        (``alpha <= 0`` raises, ``alpha <= 1`` warns).
    beta_grid:
        Alarm thresholds swept by ROC / detection-delay analyses, each in
        ``[0, 1]``, strictly increasing.
    first_month, last_month:
        Inclusive month range of the evaluation axis (paper: 12 to 24).
    backend:
        Name of the stability kernel: ``"batch"``, the columnar kernel of
        :mod:`repro.core.batch` and the only legal value (kept so
        existing configs still construct).
    n_jobs:
        Worker processes for the kernel (``-1`` = all cores).
    retries:
        Pool retry waves the resilient shard executor attempts before a
        failed shard degrades to the serial in-process fallback
        (:func:`~repro.runtime.executor.run_sharded`); only sharded
        fits consult it.
    counting:
        Absence-counting scheme, one of
        :data:`~repro.core.significance.COUNTING_SCHEMES`.

    The dataclass is frozen and hashable, so it can key memoisation
    caches.
    """

    window_months: int = 2
    alpha: float = 2.0
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    first_month: int = 12
    last_month: int = 24
    backend: str = "batch"
    n_jobs: int = 1
    retries: int = 2
    counting: str = "paper"

    def __post_init__(self) -> None:
        from repro.core.significance import COUNTING_SCHEMES, validate_alpha

        if self.window_months <= 0:
            raise ConfigError(
                f"window_months must be positive, got {self.window_months}"
            )
        validate_alpha(self.alpha)
        if not self.beta_grid:
            raise ConfigError("beta_grid must not be empty")
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        if any(not 0.0 <= b <= 1.0 for b in self.beta_grid):
            raise ConfigError(f"beta_grid values must be in [0, 1], got {self.beta_grid}")
        if any(b >= e for b, e in zip(self.beta_grid, self.beta_grid[1:], strict=False)):
            raise ConfigError("beta_grid must be strictly increasing")
        if self.first_month > self.last_month:
            raise ConfigError(
                f"first_month {self.first_month} > last_month {self.last_month}"
            )
        if self.counting not in COUNTING_SCHEMES:
            raise ConfigError(
                f"unknown counting scheme {self.counting!r}; "
                f"expected one of {COUNTING_SCHEMES}"
            )
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1 or -1, got {self.n_jobs}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backend != "batch":
            raise ConfigError(
                f"unknown backend {self.backend!r}; expected one of ('batch',)"
            )

    # ------------------------------------------------------------------
    def grid(self, calendar: StudyCalendar) -> WindowGrid:
        """The monthly window grid this config induces on a calendar."""
        from repro.core.windowing import WindowGrid

        return WindowGrid.monthly(calendar, self.window_months)

    def significance(self) -> ExponentialSignificance:
        """The paper's exponential significance rule at this ``alpha``."""
        from repro.core.significance import ExponentialSignificance

        return ExponentialSignificance(self.alpha)

    def evolve(self, **changes: object) -> ExperimentConfig:
        """A new validated config with the given fields replaced."""
        return dataclasses.replace(self, **changes)
