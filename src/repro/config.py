"""The one validated experiment configuration: :class:`ExperimentConfig`.

:class:`ExperimentConfig` is the single frozen dataclass every layer
shares for the paper's knobs (``window_months``, ``alpha``, the
evaluation months) and the kernel's (``n_jobs``, ``retries``,
``counting``): construct it once, validate it once, and pass it as
``config=`` down the data → core → eval → baselines → cli spine.  The
model, the RFM baseline, the evaluation protocol and the figures take
nothing else; ``config=None`` means ``ExperimentConfig()``, the paper's
values::

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

__all__ = ["ExperimentConfig"]


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
    first_month, last_month:
        Inclusive month range of the evaluation axis (paper: 12 to 24).
    backend:
        Name of the stability kernel: ``"batch"``, the columnar kernel of
        :mod:`repro.core.batch` and the only legal value.  The field
        stays only because the benchmark's inputs
        (``perfbench/inputs.py``) pass it; it goes once they do not.
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
