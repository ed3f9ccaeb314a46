"""Customer stability: the paper's central quantity.

Section 2 of the paper defines the stability of customer ``i`` in window
``k`` as::

    Stability_i^k = sum_{p in u_k} S(p, k) / sum_{p in I} S(p, k)

i.e. the fraction of the total item-significance mass that the customer
*kept* buying in window ``k``.  Stability is 1 when every significant item
recurs and decreases proportionally to the significance of the missing
items.

This module holds the per-window records and the trajectory they form;
the columnar kernel (:mod:`repro.core.batch`) computes them, and
:func:`~repro.core.engines.customer_trajectory` builds one customer's
records, with the per-window significance snapshots the explanation
layer (:mod:`repro.core.explanation`) needs.

Edge cases, pinned down by tests:

* Window 0 has no prior windows, so both sums are 0 — stability is
  *undefined* there and reported as ``nan`` (the paper's figures start
  well past the first window).
* The same applies to any window ``k`` where the customer has no prior
  purchases at all.
* New items in ``u_k`` that were never bought before have ``S = 0`` and
  therefore contribute to neither sum: buying novel products neither
  rewards nor penalises stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.windowing import Window
from repro.errors import ConfigError

__all__ = ["WindowStability", "StabilityTrajectory"]


@dataclass(frozen=True)
class WindowStability:
    """Stability of one customer in one window, with its evidence.

    Attributes
    ----------
    window:
        The window ``k`` this record describes.
    stability:
        ``Stability_i^k`` in [0, 1], or ``nan`` when undefined (no prior
        significance mass).
    kept_mass:
        ``sum_{p in u_k} S(p, k)`` — significance of items kept.
    total_mass:
        ``sum_{p in I} S(p, k)`` — total available significance.
    significances:
        The full snapshot ``{item: S(item, k)}`` for items with ``c > 0``,
        retained so drops can be explained after the fact.
    """

    window: Window
    stability: float
    kept_mass: float
    total_mass: float
    significances: dict[int, float]

    @property
    def defined(self) -> bool:
        """Whether stability is defined (some prior significance exists)."""
        return not math.isnan(self.stability)

    def missing_items(self) -> dict[int, float]:
        """Significance of known items *not* bought in this window."""
        return {
            item: sig
            for item, sig in self.significances.items()
            if item not in self.window.items and sig > 0.0
        }


@dataclass(frozen=True)
class StabilityTrajectory:
    """The stability series of one customer over a window grid."""

    customer_id: int
    records: tuple[WindowStability, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> WindowStability:
        return self.records[index]

    def values(self) -> list[float]:
        """Stability values in window order (``nan`` where undefined)."""
        return [record.stability for record in self.records]

    def at(self, window_index: int) -> WindowStability:
        """Record for window ``window_index``.

        Raises
        ------
        ConfigError
            If the index is outside the trajectory.
        """
        if not 0 <= window_index < len(self.records):
            raise ConfigError(
                f"window index {window_index} out of range [0, {len(self.records)})"
            )
        return self.records[window_index]

    def churn_score(self, window_index: int) -> float:
        """``1 - stability`` at a window: higher means more likely defecting.

        Undefined stability maps to a neutral score of 0.5, so customers
        without history neither trigger nor suppress alarms.
        """
        record = self.at(window_index)
        if not record.defined:
            return 0.5
        return 1.0 - record.stability

    def drops(self, threshold: float = 0.1) -> list[int]:
        """Window indices where stability fell by more than ``threshold``
        relative to the previous defined window."""
        out: list[int] = []
        previous: float | None = None
        for record in self.records:
            if not record.defined:
                continue
            if previous is not None and previous - record.stability > threshold:
                out.append(record.window.index)
            previous = record.stability
        return out
