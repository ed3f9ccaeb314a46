"""Stability engines: the two fit implementations behind one protocol.

Each engine implements :class:`StabilityEngine`: it consumes a
:class:`~repro.data.population.PopulationFrame` and produces an
:class:`EngineFit`.  :class:`~repro.core.model.StabilityModel` looks its
engine up by name (:func:`get_engine`), and
:class:`~repro.config.ExperimentConfig` validates its ``backend`` field
against :func:`available_engines`.

* ``"incremental"`` — the flexible per-customer reference engine: every
  significance rule, counting scheme and item weighting, full per-window
  significance snapshots.
* ``"batch"`` — the population-scale columnar engine
  (:mod:`repro.core.batch`), optionally sharded across processes.

The batch engine supports only the paper's exponential significance with
the ``"paper"`` counting scheme and no item weights; its stability
values agree with the incremental engine (differentially tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.batch import BatchStability, stability_matrix
from repro.core.significance import ExponentialSignificance, SignificanceFunction
from repro.core.stability import StabilityTrajectory, stability_trajectory
from repro.core.windowing import Window, windowed_history
from repro.data.population import PopulationFrame
from repro.errors import ConfigError
from repro.obs import span

import numpy as np

__all__ = [
    "FitSpec",
    "EngineFit",
    "StabilityEngine",
    "frame_windowed_history",
    "get_engine",
    "available_engines",
]


@dataclass
class FitSpec:
    """Everything an engine needs besides the frame itself.

    ``retries`` bounds the resilient executor's pool waves for sharded
    batch fits (see :func:`~repro.runtime.executor.run_sharded`); serial
    engines ignore it.
    """

    significance: SignificanceFunction
    counting: str = "paper"
    item_weights: dict[int, float] | None = None
    n_jobs: int = 1
    retries: int = 2


@dataclass
class EngineFit:
    """What an engine's fit produces.

    Exactly one of the two fields is populated: trajectory engines fill
    ``trajectories`` (keyed by customer id); the population engine fills
    ``batch`` and lets trajectories materialise lazily.
    """

    trajectories: dict[int, StabilityTrajectory] | None = None
    batch: BatchStability | None = None


@runtime_checkable
class StabilityEngine(Protocol):
    """One registered fit/score implementation."""

    name: str

    def validate(self, spec: FitSpec) -> None:
        """Raise :class:`~repro.errors.ConfigError` if the spec is
        outside this engine's envelope."""

    def fit(self, frame: PopulationFrame, spec: FitSpec) -> EngineFit:
        """Fit every customer in the frame."""


def frame_windowed_history(frame: PopulationFrame, row: int) -> list[Window]:
    """One customer's windowed database ``D_i^w`` rebuilt from the columns.

    The log-free equivalent of :func:`~repro.core.windowing.windowed_history`
    for frames that carry no source log (slab-backed frames, shards):
    per-window item sets come from the presence triples, basket counts
    and monetary totals from the basket columns.  The basket columns are
    day-sorted with ties in history order, so the sequential monetary
    accumulation reproduces the log path's float-for-float.
    """
    grid = frame.grid
    item_sets = frame.window_items(row)
    lo, hi = int(frame.basket_offsets[row]), int(frame.basket_offsets[row + 1])
    days = frame.basket_days[lo:hi]
    monetary = frame.basket_monetary[lo:hi]
    windows: list[Window] = []
    for k in range(grid.n_windows):
        begin, end = grid.bounds(k)
        b_lo = int(np.searchsorted(days, begin, side="left"))
        b_hi = int(np.searchsorted(days, end, side="left"))
        total = 0.0
        for value in monetary[b_lo:b_hi]:
            total += float(value)
        windows.append(
            Window(
                index=k,
                begin_day=begin,
                end_day=end,
                items=item_sets[k],
                n_baskets=b_hi - b_lo,
                monetary=total,
            )
        )
    return windows


def _customer_windows(
    frame: PopulationFrame, row: int, customer_id: int
) -> list[Window]:
    """Windowed history via the source log when present, else the columns."""
    if frame.log is not None:
        return windowed_history(frame.log.history(customer_id), frame.grid)
    return frame_windowed_history(frame, row)


class IncrementalEngine:
    """Flexible reference engine: per-customer, any significance rule."""

    name = "incremental"

    def validate(self, spec: FitSpec) -> None:
        if spec.n_jobs != 1:
            raise ConfigError(
                f"n_jobs={spec.n_jobs} requires backend='batch', got {self.name!r}"
            )

    def fit(self, frame: PopulationFrame, spec: FitSpec) -> EngineFit:
        trajectories: dict[int, StabilityTrajectory] = {}
        with span("engine.fit", engine=self.name, customers=frame.n_customers):
            for row, customer_id in enumerate(frame.customer_ids):
                cid = int(customer_id)
                windows = _customer_windows(frame, row, cid)
                trajectories[cid] = stability_trajectory(
                    cid,
                    windows,
                    significance=spec.significance,
                    counting=spec.counting,
                    item_weights=spec.item_weights,
                )
        return EngineFit(trajectories=trajectories)


class BatchEngine:
    """Population-scale columnar engine; paper configuration only."""

    name = "batch"

    def validate(self, spec: FitSpec) -> None:
        if not isinstance(spec.significance, ExponentialSignificance):
            raise ConfigError(
                f"backend {self.name!r} supports only ExponentialSignificance, "
                f"got {type(spec.significance).__name__}"
            )
        if spec.counting != "paper":
            raise ConfigError(
                f"backend {self.name!r} supports only the 'paper' counting "
                f"scheme, got {spec.counting!r}"
            )
        if spec.item_weights is not None:
            raise ConfigError(
                f"backend {self.name!r} does not support item_weights; "
                "use backend='incremental'"
            )

    def fit(self, frame: PopulationFrame, spec: FitSpec) -> EngineFit:
        alpha = spec.significance.alpha  # type: ignore[attr-defined]
        with span("engine.fit", engine=self.name, customers=frame.n_customers):
            return EngineFit(
                batch=stability_matrix(
                    frame,
                    alpha=alpha,
                    n_jobs=spec.n_jobs,
                    retries=spec.retries,
                )
            )


_ENGINES: dict[str, StabilityEngine] = {
    "incremental": IncrementalEngine(),
    "batch": BatchEngine(),
}


def get_engine(name: str) -> StabilityEngine:
    """Look an engine up by name.

    Raises
    ------
    ConfigError
        If ``name`` is not one of :func:`available_engines`.
    """
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; expected one of {available_engines()}"
        ) from None


def available_engines() -> tuple[str, ...]:
    """Engine names, the reference engine first."""
    return tuple(_ENGINES)
